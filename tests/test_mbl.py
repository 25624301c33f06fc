import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from animacy.corpus import Document, Label, pronoun_ratio
from animacy.enrichment import EnrichedTaxonomy, Status, enrich
from animacy.evaluation import score
from animacy.mbl import (
    OOV_LEMMA,
    FeatureVector,
    InstanceStore,
    MblConfig,
    build_store,
    cross_validate,
    extract_features,
    gain_ratio_weights as table_gain_ratio,
    knn_classify,
)
from animacy.taxonomy import NOUN, VERB, BeginnerClass, Synset, Taxonomy
from animacy.wsd import document_weights, information_content
from tests.test_acceptance import (
    instances_of,
    knn_of,
    numeric_of,
    oracle_knn,
    store_of,
    table_of,
)
from tests.test_corpus import iter_nps, make_np, reloaded
from tests.test_taxonomy import sense_mass


def vec(lemma="w", f2=0.0, f3=0.0, f4=0.0, f5=0.0, f6=0.0, label=None):
    return FeatureVector(lemma, f2, f3, f4, f5, f6, label)


A, I = Label.ANIMATE, Label.INANIMATE


def gain_ratio_weights(instances):
    """The program's gain ratios of a list of instances."""
    return table_gain_ratio(table_of(instances))


def _entropy(counts: dict) -> float:
    total = sum(counts.values())
    if total == 0:
        return 0.0
    h = 0.0
    for n in counts.values():
        if n:
            p = n / total
            h -= p * math.log2(p)
    return h


def _discretize(feature: str, value) -> object:
    # the pronoun ratio is continuous; ten equal buckets make it countable
    if feature == "pronoun_ratio":
        return min(int(value * 10), 9)
    return value


def _tally(values) -> dict:
    out: dict = {}
    for v in values:
        out[v] = out.get(v, 0) + 1
    return out


def oracle_gain_ratio(instances):
    """Reference gain ratios: nested dicts of (value, label) counts, every
    sum a scalar loop over values and labels in first-occurrence order."""
    labels = [inst.label for inst in instances]
    class_entropy = _entropy(_tally(labels))
    weights = []
    for feature in ("lemma", "animate_senses", "inanimate_senses",
                    "verb_animate", "verb_inanimate", "pronoun_ratio"):
        by_value: dict[object, dict] = {}
        for inst in instances:
            value = _discretize(feature, getattr(inst, feature))
            by_value.setdefault(value, {}).setdefault(inst.label, 0)
            by_value[value][inst.label] += 1
        total = len(instances)
        conditional = 0.0
        split_info = 0.0
        for group in by_value.values():
            size = sum(group.values())
            p = size / total
            conditional += p * _entropy(group)
            split_info -= p * math.log2(p)
        gain = max(class_entropy - conditional, 0.0)
        weights.append(gain / split_info if split_info > 0 else 0.0)
    return tuple(weights)


# sense counts and ratios that repeat, so that values form groups; both
# signs of zero, and every pronoun-ratio bucket edge
COUNTS = st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, 0.5, 1 / 3]) | st.floats(0, 50)
RATIOS = st.sampled_from([k / 10 for k in range(11)] + [-0.0, 0.95, 1 / 3]) | st.floats(0, 1)


@st.composite
def instance_lists(draw, min_size=1):
    """Labelled instances over a drawn lemma pool and label set; any column
    may be constant."""
    n = draw(st.integers(min_size, 40))
    lemmas = [f"w{i}" for i in range(draw(st.sampled_from([1, 2, 5, 400])))]
    label_set = draw(st.sampled_from([(A,), (I,), (A, I), (I, A, A), (A, I, Label.UNKNOWN)]))

    def column(values):
        if draw(st.booleans()) and draw(st.booleans()):  # constant
            return [draw(values)] * n
        return draw(st.lists(values, min_size=n, max_size=n))

    columns = [column(st.sampled_from(lemmas))] + [column(COUNTS) for _ in range(4)]
    columns.append(column(RATIOS))
    labels = column(st.sampled_from(label_set))
    return [FeatureVector(*row, label) for *row, label in zip(*columns, labels)]


class TestGainRatioMatchesOracle:
    @settings(max_examples=200, deadline=None)
    @given(instances=instance_lists())
    def test_weights_equal_dict_oracle(self, instances):
        assert gain_ratio_weights(instances) == oracle_gain_ratio(instances)

    @pytest.mark.parametrize("seed", range(4))
    def test_large_sets_equal_dict_oracle(self, seed):
        # fold-sized sets: thousands of rows over hundreds of Zipfian
        # lemmas, few distinct sense counts, ratios on bucket edges
        rng = np.random.default_rng(seed)
        n = 3000
        lemmas = rng.zipf(1.3, n) % 900
        counts = rng.integers(0, 6, (4, n)) / rng.integers(1, 4, (4, n))
        ratios = rng.integers(0, 11, n) / 10
        labels = [A if r < 0.15 else I for r in rng.random(n).tolist()]
        instances = [FeatureVector(f"w{lemma}", *row, ratio, label) for lemma, *row, ratio, label
                     in zip(lemmas.tolist(), *counts.tolist(), ratios.tolist(), labels)]
        assert gain_ratio_weights(instances) == oracle_gain_ratio(instances)

    @pytest.mark.parametrize("n, k", [(74, 9), (81, 19), (92, 25), (98, 5), (123, 25)])
    def test_logs_round_like_math_log2(self, n, k):
        # numpy 2.4's SIMD log2 on x86-64 rounds log2 of k/n or (n-k)/n one
        # bit away from math.log2, and the bit reaches the weights
        instances = [vec(lemma="a" if i < k else "b", f2=float(i % 3),
                         label=A if i % 4 else I) for i in range(n)]
        assert gain_ratio_weights(instances) == oracle_gain_ratio(instances)

    @settings(max_examples=100, deadline=None)
    @given(instances=instance_lists(min_size=2), data=st.data())
    def test_table_slice_store_equals_instance_store(self, instances, data):
        rows = data.draw(st.lists(st.integers(0, len(instances) - 1), min_size=1,
                                  max_size=len(instances), unique=True))
        if data.draw(st.booleans()):
            rows.sort()
        table = table_of(instances)
        sliced = InstanceStore(table.take(np.array(rows)))
        direct = store_of(instances[i] for i in rows)
        assert sliced.weights == direct.weights
        assert sliced.ranges == direct.ranges
        assert list(sliced.label_masks) == list(direct.label_masks)
        for label, mask in direct.label_masks.items():
            assert np.array_equal(sliced.label_masks[label], mask)
        assert instances_of(sliced.table) == instances_of(direct.table)
        # every lemma of the table (stored in the slice or not) and one
        # outside it, against every stored numeric pattern
        queries = [FeatureVector(lemma, *numeric_of(inst))
                   for inst in instances for lemma in (inst.lemma, "never-stored")]
        for k in (1, 2, 4):
            config = MblConfig(k=k)
            for query in queries:
                assert (knn_of(query, sliced, config)
                        is knn_of(query, direct, config)), (k, query)


class TestExtractFeatures:
    def test_subject_with_known_verb_fills_everything(self, enriched, mini_corpus):
        doc = mini_corpus[0]
        np = doc.nps[0]  # teacher, subject of speak
        fv = extract_features(np, doc, enriched.sense_table())
        assert fv.lemma == "teacher"
        assert (fv.animate_senses, fv.inanimate_senses) == (1.0, 0.0)
        assert (fv.verb_animate, fv.verb_inanimate) == (1.0, 0.0)
        assert fv.pronoun_ratio == 0.75
        assert fv.label is Label.ANIMATE

    def test_non_subject_has_zero_verb_counts(self, enriched, mini_corpus):
        doc = mini_corpus[0]
        np = doc.nps[1]  # the children, not a subject
        fv = extract_features(np, doc, enriched.sense_table())
        assert fv.verb_animate == 0.0 and fv.verb_inanimate == 0.0

    def test_undecided_sense_resolved_by_animate_hypernym(self):
        t = Taxonomy([
            Synset("p", "n", ("parent",), (), 6),
            Synset("c", "n", ("word",), ("p",), 6),
        ])
        e = EnrichedTaxonomy(t, {"p": Status.ANIMATE, "c": Status.UNDECIDED})
        doc = Document("d", (make_np(head="word"),), 0, 0)
        fv = extract_features(doc.nps[0], doc, e.sense_table())
        assert (fv.animate_senses, fv.inanimate_senses) == (1.0, 0.0)

    def test_oov_lemma_marked(self, enriched, mini_corpus):
        doc = mini_corpus[0]
        np = next(x for x in doc.nps if x.head_lemma == "gizmo")
        fv = extract_features(np, doc, enriched.sense_table())
        assert fv.lemma == OOV_LEMMA
        assert fv.animate_senses == 0.0 and fv.inanimate_senses == 0.0

    def test_fallback_chain_is_total(self, enriched, toy_taxonomy, mini_corpus):
        for doc in mini_corpus:
            for np in doc.nps:
                senses = toy_taxonomy.senses(np.head_lemma, "n")
                fv = extract_features(np, doc, enriched.sense_table())
                assert fv.animate_senses + fv.inanimate_senses == len(senses)


def oracle_features(np_record, doc, enriched, beginners, weighting=None):
    """Reference instance: every sense of the head and verb resolved anew
    for this NP, with no per-lemma memo."""
    def is_animate(sid):
        return enriched.resolve_animate(sid, beginners)

    lemma = np_record.head_lemma
    senses = enriched.base.senses(lemma, NOUN)
    noun = (0.0, 0.0)
    if senses:
        weights = None
        if weighting is not None:
            weights = (weighting.for_lemma(lemma, senses)
                       or dict.fromkeys(senses, 1.0 / len(senses)))
        noun = sense_mass(senses, is_animate, weights)
    else:
        lemma = OOV_LEMMA
    verb = (0.0, 0.0)
    if np_record.is_subject and np_record.verb_lemma is not None:
        verb = sense_mass(enriched.base.senses(np_record.verb_lemma, VERB), is_animate)
    return FeatureVector(lemma, *noun, *verb, pronoun_ratio(doc), np_record.gold)


class TestFeaturesMatchOracle:
    """Per-lemma sense masses give the same instances as per-NP ones."""

    CLASSES = (BeginnerClass(),
               BeginnerClass(animate_noun_lexfiles=frozenset({6, 18}),
                             animate_verb_lexfiles=frozenset({30, 38})))

    @pytest.mark.parametrize("decided", [True, False])
    def test_memo_is_kept_per_beginner_class(self, toy_taxonomy, mini_corpus, decided):
        # with no synset decided, every sense falls back to the beginner
        # class, so the two classes disagree on many lemmas
        enriched = (enrich(toy_taxonomy, mini_corpus) if decided
                    else EnrichedTaxonomy(toy_taxonomy, {}))
        tables = [enriched.sense_table(b) for b in self.CLASSES]
        differs = False
        for doc, np_record in iter_nps(mini_corpus):
            got = [extract_features(np_record, doc, table) for table in tables]
            assert got == [oracle_features(np_record, doc, enriched, b)
                           for b in self.CLASSES], np_record.key
            differs |= got[0] != got[1]
        assert differs

    def test_weighted_noun_masses_bypass_the_memo(self, toy_taxonomy, mini_corpus):
        enriched = enrich(toy_taxonomy, mini_corpus)
        ic = information_content(mini_corpus, toy_taxonomy)
        beginners = BeginnerClass()
        senses = enriched.sense_table(beginners)
        differs = False
        for doc in mini_corpus:
            weighting = document_weights(doc, toy_taxonomy, ic)
            for np_record in doc.nps:
                plain = extract_features(np_record, doc, senses)
                weighted = extract_features(np_record, doc, senses, weighting)
                assert weighted == oracle_features(
                    np_record, doc, enriched, beginners, weighting), np_record.key
                differs |= plain != weighted
        assert differs


@st.composite
def drawn_corpora(draw, mini_corpus):
    """One to three documents over the heads and verbs of the bundled
    corpus, plus an unknown one of each, with drawn gold labels and
    pronoun counts."""
    heads = sorted({np.head_lemma for d in mini_corpus for np in d.nps}) + ["unseen"]
    verbs = sorted({np.verb_lemma for d in mini_corpus for np in d.nps} - {None})
    docs = []
    for d in range(draw(st.integers(1, 3))):
        nps = []
        for i in range(draw(st.integers(0, 6))):
            verb = draw(st.none() | st.sampled_from(verbs + ["unseen"]))
            nps.append(make_np(doc=f"d{d}", sent=i // 2, np=i, head=draw(st.sampled_from(heads)),
                               gold=draw(st.sampled_from([Label.ANIMATE, Label.INANIMATE, None])),
                               is_subject=verb is not None or draw(st.booleans()),
                               verb_lemma=verb))
        docs.append(Document(f"d{d}", tuple(nps), draw(st.integers(0, 3)),
                             draw(st.integers(0, 3))))
    return docs


class TestBuildStoreMatchesOracle:
    """The store holds the oracle instance of every labelled NP, whether
    the corpus holds records or columns."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), weighted=st.booleans())
    def test_store_of_oracle_instances(self, toy_taxonomy, enriched, mini_corpus, data,
                                       weighted):
        docs = data.draw(drawn_corpora(mini_corpus))
        ic = weightings = None
        if weighted:
            ic = information_content(mini_corpus, toy_taxonomy)
            weightings = {doc.doc_id: document_weights(doc, toy_taxonomy, ic) for doc in docs}
        expected = tuple(
            oracle_features(np_record, doc, enriched, BeginnerClass(),
                            weightings[doc.doc_id] if weighted else None)
            for doc, np_record in iter_nps(docs) if np_record.gold is not None
        )
        for form in (docs, reloaded(docs)):
            if not expected:
                with pytest.raises(ValueError, match="empty"):
                    build_store(form, enriched.sense_table(), ic=ic)
                continue
            store = build_store(form, enriched.sense_table(), ic=ic)
            assert instances_of(store.table) == expected
            assert store.weights == store_of(expected).weights


class TestGainRatio:
    def test_perfect_binary_split_weighs_one(self):
        instances = [
            vec(lemma="x", label=A), vec(lemma="x", label=A),
            vec(lemma="y", label=I), vec(lemma="y", label=I),
        ]
        weights = gain_ratio_weights(instances)
        assert weights[0] == pytest.approx(1.0)

    def test_constant_feature_weighs_zero(self):
        instances = [vec(lemma="x", label=A), vec(lemma="x", label=I)]
        assert gain_ratio_weights(instances)[0] == 0.0

    def test_class_independent_feature_weighs_zero(self):
        # eight instances; the lemma splits evenly inside each class
        instances = [
            vec(lemma="p", label=A), vec(lemma="p", label=A),
            vec(lemma="q", label=A), vec(lemma="q", label=A),
            vec(lemma="p", label=I), vec(lemma="p", label=I),
            vec(lemma="q", label=I), vec(lemma="q", label=I),
        ]
        assert abs(gain_ratio_weights(instances)[0]) < 1e-12

    def test_single_class_store_all_zero(self):
        instances = [vec(lemma="x", label=A), vec(lemma="y", label=A)]
        assert all(w == 0.0 for w in gain_ratio_weights(instances))

    def test_weights_non_negative(self, enriched, mini_corpus):
        store = store_of([
            extract_features(np, doc, enriched.sense_table())
            for doc in mini_corpus for np in doc.nps if np.gold is not None
        ])
        assert all(w >= 0.0 for w in store.weights)


class TestKnn:
    def test_identical_instance_k1(self):
        store = store_of([
            vec(lemma="x", f2=1, label=A),
            vec(lemma="y", f3=1, label=I),
        ])
        assert knn_of(vec(lemma="x", f2=1), store, MblConfig(k=1)) is A

    def test_majority_two_to_one(self):
        store = store_of([
            vec(lemma="a", f2=1, label=A),
            vec(lemma="b", f2=1, label=A),
            vec(lemma="c", f3=1, label=I),
        ])
        # query matches nothing symbolically; three distinct distances
        got = knn_of(vec(lemma="q", f2=1), store, MblConfig(k=3))
        assert got is A

    def test_equidistant_tie_goes_inanimate(self):
        store = store_of([
            vec(lemma="left", f2=0, label=A),
            vec(lemma="right", f2=2, label=I),
        ])
        assert knn_of(vec(lemma="q", f2=1), store, MblConfig(k=2)) is I

    def test_instances_tied_at_kth_distance_all_vote(self):
        store = store_of([
            vec(lemma="x", label=I),
            vec(lemma="x", label=I),
            vec(lemma="x", label=A),
            vec(lemma="far", f2=5, label=A),
        ])
        # k=1: the single nearest distance covers three instances
        assert knn_of(vec(lemma="x"), store, MblConfig(k=1)) is I

    def test_leave_one_in(self, enriched, mini_corpus):
        instances = []
        seen = set()
        for doc in mini_corpus:
            for np in doc.nps:
                if np.gold is None:
                    continue
                fv = extract_features(np, doc, enriched.sense_table())
                key = (fv.lemma,) + numeric_of(fv)
                if key not in seen:  # unique feature vectors only
                    seen.add(key)
                    instances.append(fv)
        store = store_of(instances)
        for fv in instances:
            assert knn_of(fv, store, MblConfig(k=1)) is fv.label

    def test_weight_scaling_never_changes_labels(self, enriched, mini_corpus):
        instances = [
            extract_features(np, doc, enriched.sense_table())
            for doc in mini_corpus for np in doc.nps if np.gold is not None
        ]
        store = store_of(instances[:40])
        queries = instances[40:]
        before = [knn_of(q, store, MblConfig(k=3)) for q in queries]
        store.weights = tuple(w * 7.5 for w in store.weights)
        after = [knn_of(q, store, MblConfig(k=3)) for q in queries]
        assert before == after

    def test_large_tied_stores_match_scalar_oracle(self):
        # ~2,000 instances over 24 numeric patterns: neighbourhoods hold
        # tens to hundreds of exactly tied instances.  "cow" is stored as
        # A/I pairs, so its queries tie on votes and the distance tie-break
        # compares equal multisets of distances summed in store order.
        rng = np.random.default_rng(2024)
        lemmas = ("ant", "bee", "cow", "elk")  # "elk" is never stored

        def draw(lemma, label=None):
            return FeatureVector(
                lemma, float(rng.integers(0, 2)), float(rng.integers(0, 2)),
                float(rng.integers(0, 2)), 0.0,
                (0.0, 0.5, 1.0)[int(rng.integers(3))], label,
            )

        for round_ in range(6):
            instances = []
            while len(instances) < 2000:
                lemma = lemmas[int(rng.integers(3))]
                if lemma == "cow":
                    labels = (A, I)
                else:  # ant is mostly animate, bee mostly inanimate
                    flip = rng.random() < 0.1
                    labels = (A if (lemma == "ant") != flip else I,)
                fv = draw(lemma)
                instances += [FeatureVector(lemma, *numeric_of(fv), label) for label in labels]
            store = store_of(instances[i] for i in rng.permutation(len(instances)))
            for k in range(1, 7):
                query = draw(lemmas[(round_ + k) % 4])
                got = knn_of(query, store, MblConfig(k=k))
                assert got is oracle_knn(query, store, k), (round_, k)

    def test_degenerate_all_zero_weights_fall_back_to_majority(self):
        # single-class training data gives zero weights and zero distances
        store = store_of([
            vec(lemma="x", label=I), vec(lemma="y", label=I), vec(lemma="z", label=I),
        ])
        assert knn_of(vec(lemma="anything"), store, MblConfig(k=1)) is I

    def test_subnormal_span_under_zero_weight_is_ignored(self):
        # single-class data weighs every feature 0; the query's scaled
        # difference over the 1e-308 span overflows to inf, and 0 * inf
        # would make every distance NaN and leave no neighbour to vote
        store = store_of([vec(lemma="x", f5=0.0, label=A),
                               vec(lemma="x", f5=1e-308, label=A)])
        assert knn_of(vec(lemma="x", f5=2.0), store, MblConfig(k=1)) is A

    def test_empty_store_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            store_of([])

    def test_unlabelled_training_instance_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            store_of([vec()])

    def test_queries_coded_elsewhere_rejected(self):
        store = store_of([vec(lemma="x", label=A), vec(lemma="y", label=I)])
        queries = table_of([vec(lemma="x")])  # codes of its own, not the store's
        with pytest.raises(ValueError, match="lemma_ids"):
            knn_classify(queries, 0, store)


def labelled_golds(docs):
    """The gold labels of the labelled NPs of `docs`, in corpus order."""
    return [record.gold for _, record in iter_nps(docs) if record.gold is not None]


class TestCrossValidation:
    def test_every_instance_predicted_exactly_once(self, enriched, mini_corpus):
        report, predicted = cross_validate(mini_corpus, enriched.sense_table(), folds=10, seed=3)
        labelled = [np for d in mini_corpus for np in d.nps if np.gold is not None]
        assert report.total == len(labelled)
        assert len(predicted) == len(labelled)
        assert all(pred is not None for pred in predicted)

    def test_same_seed_same_report(self, enriched, mini_corpus):
        first = cross_validate(mini_corpus, enriched.sense_table(), folds=10, seed=11)
        second = cross_validate(mini_corpus, enriched.sense_table(), folds=10, seed=11)
        assert first[0] == second[0]
        assert first[1] == second[1]

    def test_report_is_score_of_pooled_streams(self, enriched, mini_corpus):
        report, predicted = cross_validate(mini_corpus, enriched.sense_table(), folds=5, seed=1)
        assert score(labelled_golds(mini_corpus), predicted) == report

    @pytest.mark.parametrize("seed, weighted", [
        pytest.param(seed, weighted, id=f"{seed}-wsd" if weighted else str(seed))
        for weighted in (False, True) for seed in (1, 7, 11)
    ])
    def test_predictions_match_oracle_fold_by_fold(self, toy_taxonomy, enriched, mini_corpus,
                                                   seed, weighted):
        ic = weightings = None
        if weighted:
            ic = information_content(mini_corpus, toy_taxonomy)
            weightings = {doc.doc_id: document_weights(doc, toy_taxonomy, ic)
                          for doc in mini_corpus}
        features = [
            extract_features(record, doc, enriched.sense_table(),
                             weightings[doc.doc_id] if weighted else None)
            for doc, record in iter_nps(mini_corpus) if record.gold is not None
        ]
        order = np.random.default_rng(seed).permutation(len(features))
        for k in (1, 3, 5):
            _, predicted = cross_validate(mini_corpus, enriched.sense_table(), folds=10,
                                          config=MblConfig(k=k), seed=seed, ic=ic)
            expected = [None] * len(features)
            for fold in np.array_split(order, 10):
                held_out = set(fold.tolist())
                store = store_of(fv for i, fv in enumerate(features) if i not in held_out)
                for i in held_out:
                    expected[i] = oracle_knn(features[i], store, k)
            assert predicted == expected, k

    def test_too_few_instances(self, enriched, mini_corpus):
        with pytest.raises(ValueError, match="folds"):
            cross_validate(mini_corpus[:1], enriched.sense_table(), folds=50, seed=0)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            MblConfig(k=0)
