"""Feature assembly: PCA against a Jacobi oracle, the batch featurizer against
a per-pair oracle, windows, causality."""

from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from atrisk.errors import InsufficientDataError, ValidationError
from atrisk.events import MAX_DAY, ColumnSchema
from atrisk.features import (
    ALL_BLOCKS,
    LOOKBACK_DAYS,
    FeatureSpace,
    TimelineIndex,
    assemble,
    build_teacher_history,
    fit_pca,
)
from atrisk.pipeline import fit_feature_space
from atrisk.synthgen import SimConfig, generate_cohort

from conftest import IN_COLS, OUT_COLS, cohort_of, obs, session, student


# ---------------------------------------------------------------------------
# PCA against an independent cyclic-Jacobi eigendecomposition


def jacobi_eigh(A, sweeps=100, tol=1e-14):
    """Cyclic Jacobi rotations on a symmetric matrix; returns (evals, evecs)."""
    A = np.array(A, dtype=np.float64)
    n = A.shape[0]
    V = np.eye(n)
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.tril(A, -1) ** 2))
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(A[p, q]) < tol:
                    continue
                theta = 0.5 * np.arctan2(2 * A[p, q], A[q, q] - A[p, p])
                c, s = np.cos(theta), np.sin(theta)
                J = np.eye(n)
                J[p, p] = J[q, q] = c
                J[p, q] = s
                J[q, p] = -s
                A = J.T @ A @ J
                V = V @ J
    return np.diag(A).copy(), V


def sample_cov(rows):
    mean = rows.mean(axis=0)
    centered = rows - mean
    return centered.T @ centered / (rows.shape[0] - 1)


@pytest.mark.parametrize("seed", range(5))
def test_pca_matches_jacobi_oracle(seed):
    rng = np.random.default_rng(seed)
    d = 4
    rows = rng.normal(size=(60, d)) @ rng.normal(size=(d, d))
    model = fit_pca(rows)

    evals, evecs = jacobi_eigh(sample_cov(rows))
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order]

    np.testing.assert_allclose(model.explained_variance, evals, rtol=1e-8, atol=1e-10)
    for i in range(model.n_components):
        v = evecs[:, i]
        if v[np.argmax(np.abs(v))] < 0:
            v = -v  # same deterministic sign convention
        np.testing.assert_allclose(model.components[i], v, rtol=1e-7, atol=1e-8)


def test_pca_components_orthonormal():
    rng = np.random.default_rng(3)
    model = fit_pca(rng.normal(size=(40, 4)))
    gram = model.components @ model.components.T
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-10)


def test_pca_explained_variance_sorted_non_negative():
    rng = np.random.default_rng(4)
    model = fit_pca(rng.normal(size=(50, 4)))
    ev = model.explained_variance
    assert np.all(ev[:-1] >= ev[1:])
    assert np.all(ev >= 0)


def test_pca_rank_deficient_input_caps_components():
    rng = np.random.default_rng(6)
    col = rng.normal(size=(30, 1))
    rows = np.hstack([col, 2 * col, -col, 0 * col])  # rank 1
    model = fit_pca(rows)
    assert model.n_components == 1


def test_pca_projection_recovers_centered_data():
    rng = np.random.default_rng(7)
    rows = rng.normal(size=(30, 4))
    model = fit_pca(rows)
    proj = model.project(rows)
    np.testing.assert_allclose(proj @ model.components, rows - model.mean, atol=1e-10)


def test_pca_rejects_degenerate_inputs():
    with pytest.raises(InsufficientDataError):
        fit_pca(np.ones((1, 3)))
    with pytest.raises(InsufficientDataError):
        fit_pca(np.array([[1.0, np.nan], [2.0, 3.0]]))


# ---------------------------------------------------------------------------
# Teacher history


def teacher_fixture():
    """One teacher with 10 sessions to 4 students; one drops at day 40."""
    students = []
    for i, (days, status) in enumerate(
        [
            ([5, 12, 19], "completion"),
            ([8, 15], "completion"),
            ([10, 20, 30], "dropout"),  # drops at day 40
            ([25, 35], "completion"),
        ]
    ):
        pairs = [session(d, teacher="t1") for d in days]
        if status == "dropout":
            pairs.append(obs(40, kind="dropout_event"))
        students.append(student(f"s{i}", pairs, status=status))
    return cohort_of(*students)


def query_one(hist, teacher_id, day):
    """One (teacher, day) query through the batch `query`, as plain numbers."""
    return tuple(a.item() for a in hist.query([teacher_id], [day]))


def test_teacher_history_hand_count():
    hist = build_teacher_history(teacher_fixture())
    courses, n_students, rate = query_one(hist, "t1", 50)
    assert (courses, n_students, rate) == (10, 4, 0.25)


def test_teacher_history_dropout_day_boundary_is_strict():
    hist = build_teacher_history(teacher_fixture())
    assert query_one(hist, "t1", 40)[2] == 0.0  # day 40 dropout not yet counted
    assert query_one(hist, "t1", 41)[2] == 0.25


def test_teacher_history_unseen_teacher_uses_global_prior():
    hist = build_teacher_history(teacher_fixture())
    courses, n_students, rate = query_one(hist, "t999", 50)
    assert (courses, n_students) == (0, 0)
    assert rate == hist.global_prior(50) == 0.25


def test_teacher_history_before_any_activity():
    hist = build_teacher_history(teacher_fixture())
    assert query_one(hist, "t1", 5) == (0, 0, 0.0)


def test_teacher_history_batch_query_mixes_teachers():
    """One query over unseen teachers (sorting before and after the known
    ones), a teacher asked before its first student, and the day-40 boundary."""
    cohort = cohort_of(
        *teacher_fixture(), student("s4", [session(45, teacher="t2"), session(50, teacher="t2")],
                                    teacher="t2"),
    )
    hist = build_teacher_history(cohort)
    teachers = ["t0", "t2", "t2", "t1", "t1", "t999", "t1", ""]
    days = [50, 45, 46, 40, 41, 41, 5, 41]
    courses, n_students, rate = hist.query(teachers, days)
    assert courses.tolist() == [0, 0, 1, 10, 10, 0, 0, 0]
    assert n_students.tolist() == [0, 0, 1, 4, 4, 0, 0, 0]
    assert rate.tolist() == [0.2, 0.25, 0.0, 0.0, 0.25, 0.25, 0.0, 0.25]
    for t, d, *got in zip(teachers, days, courses, n_students, rate):
        assert tuple(got) == oracle_teacher_query(cohort, t, d)


# The per-pair featurizer that the batch `assemble` replaced, kept as its
# oracle: one point at a time, every array rebuilt from the observations.

_ORACLE_AGGS = ("mean", "last")


def oracle_teacher_query(history, teacher_id, day):
    """Teacher history before `day`, counted straight from the observations of
    `history`, the cohort the TeacherHistoryIndex was built from."""

    def taught(s):
        return [
            o.day for o in s.observations
            if o.kind == "class_session" and teacher_id
            and (o.teacher_id or s.teacher_id) == teacher_id and o.day < day
        ]

    def dropped(students):
        return sum(s.final_status == "dropout" and s.last_day < day for s in students)

    courses = sum(len(taught(s)) for s in history)
    students = [s for s in history if taught(s)]
    if students:
        return courses, len(students), dropped(students) / len(students)
    seen = sum(s.first_day < day for s in history)
    return courses, 0, dropped(history) / seen if seen else 0.0


def oracle_vector_aggregates(stack, width):
    out = []
    n = stack.shape[0]
    if n:
        agg_values = {"mean": stack.mean(axis=0), "last": stack[-1]}
    else:
        zero = np.zeros(width)
        agg_values = {"mean": zero, "last": zero}
    for agg in _ORACLE_AGGS:
        out.extend(float(v) for v in agg_values[agg])
    out.append(float(n))
    return out


def oracle_assemble(student, at_day, space, history):
    """The row of `student` at `at_day` in `space`; `history` is the cohort
    its teacher history was built from."""
    pca, schema = space.pca, space.schema
    if at_day < student.first_day:
        raise ValidationError("at_day precedes first observation")
    obs_ = student.observations

    def days_of(keep):
        return np.array([o.day for o in obs_ if keep(o)], dtype=np.int64)

    def rows_of(attr, width):
        kept = [o for o in obs_ if getattr(o, attr) is not None]
        rows = np.vstack([getattr(o, attr) for o in kept]) if kept else np.empty((0, width))
        return np.array([o.day for o in kept], dtype=np.int64), rows

    values = []
    if "in" in space.blocks:
        in_days, in_rows = rows_of("inclass_values", len(schema.inclass_columns))
        n_in = int(np.searchsorted(in_days, at_day, side="right"))
        rows = in_rows[:n_in]
        if n_in:
            raw = {"mean": rows.mean(axis=0), "last": rows[-1]}
            agg_values = {k: pca.project(v)[0] for k, v in raw.items()}
        else:
            zero = np.zeros(pca.n_components)
            agg_values = {"mean": zero, "last": zero}
        for agg in _ORACLE_AGGS:
            values.extend(float(v) for v in agg_values[agg])
        values.append(float(n_in))
    if "out" in space.blocks:
        out_days, out_rows = rows_of("outclass_values", len(schema.outclass_columns))
        n_out = int(np.searchsorted(out_days, at_day, side="right"))
        values += oracle_vector_aggregates(out_rows[:n_out], len(schema.outclass_columns))
    if "time" in space.blocks:
        class_days = days_of(lambda o: o.kind == "class_session")
        per_kind = [
            class_days,
            days_of(lambda o: o.kind == "follow_up"),
            days_of(lambda o: o.kind == "reschedule"),
            days_of(lambda o: o.kind == "follow_up" and (o.polarity or 0) > 0),
            days_of(lambda o: o.kind == "follow_up" and (o.polarity or 0) < 0),
        ]
        for L in LOOKBACK_DAYS:
            for kind_days in per_kind:
                in_window = (kind_days > at_day - L) & (kind_days <= at_day)
                values.append(float(np.sum(in_window)))
            w_classes = class_days[(class_days > at_day - L) & (class_days <= at_day)]
            n_gaps = len(w_classes) - 1
            if n_gaps > 0:
                values.append(float(w_classes[-1] - w_classes[0]) / n_gaps)
                values.append(float(n_gaps))
            else:
                values += [0.0, 0.0]
        past = class_days[class_days <= at_day]
        values += [float(at_day - past[-1]), 1.0] if len(past) else [0.0, 0.0]
        values.append(float(at_day - student.first_day))
        courses, students, rate = oracle_teacher_query(history, student.teacher_id, at_day)
        values += [float(courses), float(students), float(rate)]
    return np.array(values, dtype=np.float64)


# ---------------------------------------------------------------------------
# assemble

Row = namedtuple("Row", "values names")


def assemble_one(s, day, space, history):
    """One point through the batch featurizer, with its column names; `history`
    is the cohort its teacher history is built from."""
    X = assemble([(s, day)], space, build_teacher_history(history))
    assert X.shape == (1, len(space.names))
    return Row(X[0], space.names)


def fitted(cohort, blocks=ALL_BLOCKS):
    rows = np.vstack(
        [
            o.inclass_values
            for s in cohort
            for o in s.observations
            if o.inclass_values is not None
        ]
    )
    return FeatureSpace(blocks, fit_pca(rows), cohort.schema)


def get(fv, name):
    return fv.values[fv.names.index(name)]


def test_assemble_names_align_with_values(small_cohort):
    space = fitted(small_cohort)
    fv = assemble_one(small_cohort.students["s1"], 12, space, small_cohort)
    assert fv.names == space.names
    assert len(fv.values) == len(fv.names)
    assert np.all(np.isfinite(fv.values))


def test_assemble_window_counts_hand_checked(small_cohort):
    space = fitted(small_cohort)
    s1 = small_cohort.students["s1"]  # sessions at 3, 10; follow-up at 12
    fv = assemble_one(s1, 12, space, small_cohort)
    # (12-7, 12] = (5, 12] contains session day 10 only
    assert get(fv, "time_w7_classes") == 1.0
    # (12-14, 12] covers both sessions
    assert get(fv, "time_w14_classes") == 2.0
    assert get(fv, "time_w7_followups") == 1.0
    assert get(fv, "time_w14_gap_mean") == 7.0  # (10-3)/1
    assert get(fv, "time_w14_gap_count") == 1.0
    assert get(fv, "time_days_since_last_class") == 2.0
    assert get(fv, "time_has_class") == 1.0
    assert get(fv, "time_days_since_first_obs") == 11.0
    assert get(fv, "time_w7_pos_followups") == 1.0
    assert get(fv, "time_w7_neg_followups") == 0.0


def test_assemble_window_is_half_open(small_cohort):
    space = fitted(small_cohort)
    s1 = small_cohort.students["s1"]
    # at day 10 with L=7: window (3, 10] excludes the session on day 3
    fv = assemble_one(s1, 10, space, small_cohort)
    assert get(fv, "time_w7_classes") == 1.0


def test_assemble_counts_additive_over_windows(small_cohort):
    """count(L2) - count(L1) equals the count in the band (d-L2, d-L1]."""
    space = fitted(small_cohort)
    assert LOOKBACK_DAYS == (7, 14, 21, 30)
    s1 = small_cohort.students["s1"]
    fv = assemble_one(s1, 12, space, small_cohort)
    band = get(fv, "time_w14_classes") - get(fv, "time_w7_classes")
    days_in_band = [d for d in (3, 10) if 12 - 14 < d <= 12 - 7]
    assert band == len(days_in_band)


def test_assemble_causality_ignores_future(small_cohort):
    """Deleting observations after the query day must not change the output."""
    space = fitted(small_cohort)
    s1 = small_cohort.students["s1"]
    full = assemble_one(s1, 10, space, small_cohort)
    truncated = student(
        "s1", [o for o in s1.observations if o.day <= 10], status="dropout"
    )
    trimmed = assemble_one(truncated, 10, space, small_cohort)
    assert full.values.tobytes() == trimmed.values.tobytes()


def test_assemble_rejects_day_before_first_observation(small_cohort):
    space = fitted(small_cohort)
    with pytest.raises(ValidationError):
        assemble_one(small_cohort.students["s1"], 0, space, small_cohort)


def test_assemble_zero_observations_encode_as_zero_count(small_cohort):
    space = fitted(small_cohort)
    s4 = small_cohort.students["s4"]  # one session, no out-of-class data
    fv = assemble_one(s4, 7, space, small_cohort)
    assert get(fv, "out_count") == 0.0
    assert get(fv, "in_count") == 1.0
    out_cols = [v for n, v in zip(fv.names, fv.values) if n.startswith("out_")]
    assert all(v == 0.0 for v in out_cols)


def test_assemble_block_selection(small_cohort):
    s1 = small_cohort.students["s1"]
    for blocks in (("in",), ("out",), ("time",), ("in", "time")):
        fv = assemble_one(s1, 12, fitted(small_cohort, blocks), small_cohort)
        prefixes = {n.split("_")[0] for n in fv.names}
        assert prefixes == set(blocks)


def test_assemble_in_block_matches_direct_projection(small_cohort):
    """Projected aggregates equal aggregates of projected rows."""
    space = fitted(small_cohort)
    s1 = small_cohort.students["s1"]
    fv = assemble_one(s1, 12, space, small_cohort)
    rows = np.vstack(
        [o.inclass_values for o in s1.observations if o.inclass_values is not None]
    )
    proj = space.pca.project(rows)
    k = space.pca.n_components
    for i in range(k):
        assert get(fv, f"in_mean_pc{i + 1}") == pytest.approx(proj.mean(axis=0)[i])
        assert get(fv, f"in_last_pc{i + 1}") == pytest.approx(proj[-1, i])


def test_feature_space_refuses_unknown_blocks(small_cohort):
    with pytest.raises(ValidationError):
        fitted(small_cohort, ("in", "weather"))


@settings(max_examples=25, deadline=None)
@given(at_day=st.integers(min_value=1, max_value=40), seed=st.integers(0, 10))
def test_assemble_causality_randomized(at_day, seed):
    """Random history: output depends only on observations at or before at_day."""
    rng = np.random.default_rng(seed)
    days = sorted(rng.choice(np.arange(1, 41), size=8, replace=False))
    pairs = [
        session(int(d), tuple(rng.normal(size=4))) if i % 2 == 0
        else obs(int(d), outclass=list(rng.normal(size=3)), polarity=1)
        for i, d in enumerate(days)
    ]
    s = student("r", pairs, status="completion")
    cohort = cohort_of(s)
    if at_day < s.first_day:
        return
    space = fitted(cohort)
    full = assemble_one(s, at_day, space, cohort)
    visible = [o for o in s.observations if o.day <= at_day]
    trimmed = assemble_one(student("r", visible, status="completion"), at_day, space,
                           cohort)
    np.testing.assert_array_equal(full.values, trimmed.values)


# ---------------------------------------------------------------------------
# batch featurizer against the per-pair oracle

SHAPES = ("mixed", "no_sessions", "no_outclass", "bare", "single")  # bare: no vectors


@st.composite
def batches(draw):
    """A cohort of varied histories, teacher history from part of it (so some
    teachers are unseen), random blocks, a PCA of random rank (so fewer than
    PCA_COMPONENTS components), and points with duplicates. `history` is the
    cohort the teacher history was built from."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    students = []
    for k in range(draw(st.integers(1, 6))):
        shape = draw(st.sampled_from(SHAPES))
        n_obs = 1 if shape == "single" else draw(st.integers(1, 14))
        days = sorted(draw(st.sets(st.integers(0, 60), min_size=n_obs, max_size=n_obs)))
        kinds = ["follow_up", "reschedule", "purchase_event"]
        if shape not in ("no_sessions", "bare"):
            kinds.append("class_session")
        pairs = []
        for d in days:
            kind = kinds[int(rng.integers(len(kinds)))]
            with_out = shape not in ("no_outclass", "bare") and rng.random() < 0.6
            pairs.append(obs(
                d, kind=kind,
                inclass=rng.normal(size=len(IN_COLS)) if kind == "class_session" else None,
                outclass=rng.normal(size=len(OUT_COLS)) if with_out else None,
                polarity=int(rng.integers(-1, 2)) if kind == "follow_up" else None,
                teacher=None,
            ))
        teacher = draw(st.sampled_from(["t1", "t2", f"solo{k}"]))
        status = draw(st.sampled_from(["completion", "dropout", "ongoing"]))
        students.append(student(f"s{k}", pairs, status=status, teacher=teacher))
    cohort = cohort_of(*students)
    history = cohort_of(*students[: draw(st.integers(0, len(students)))])
    hist = build_teacher_history(history)
    blocks = tuple(draw(st.sets(st.sampled_from(["in", "out", "time"]), min_size=1)))
    rank = draw(st.integers(1, len(IN_COLS)))
    mixing = rng.normal(size=(rank, len(IN_COLS)))
    pca = fit_pca(rng.normal(size=(12, rank)) @ mixing * 3.0 + 1.0)
    assert pca.n_components == rank
    picks = draw(st.lists(
        st.tuples(st.integers(0, len(students) - 1), st.integers(0, 70)), min_size=1, max_size=40,
    ))
    points = [(students[j], students[j].first_day + offset) for j, offset in picks]
    return FeatureSpace(blocks, pca, cohort.schema), hist, history, points, rng


@settings(max_examples=120, deadline=None)
@given(case=batches(), data=st.data())
def test_assemble_rows_equal_per_pair_oracle(case, data):
    space, hist, history, points, rng = case
    X = assemble(points, space, hist)
    assert X.shape == (len(points), len(space.names))
    for row, (s, day) in zip(X, points):
        assert row.tobytes() == oracle_assemble(s, day, space, history).tobytes()

    perm = rng.permutation(len(points))
    shuffled = assemble([points[i] for i in perm], space, hist)
    assert shuffled.tobytes() == X[perm].tobytes()
    k = data.draw(st.integers(0, len(points)))
    halves = [assemble(part, space, hist) for part in (points[:k], points[k:])]
    assert np.vstack(halves).tobytes() == X.tobytes()


@st.composite
def batch_sequences(draw):
    """Two separately built `batches()` cases, whose records share student ids,
    scored with the first one's state: both cases' points plus points far past
    a record's last day (up to MAX_DAY), cut into a sequence of batches, so new
    records arrive mid-sequence and records repeat within and across batches."""
    space, hist, history, points, _ = draw(batches())
    other = draw(batches())[-2]
    records = [s for s, _ in points + other]
    far = draw(st.lists(st.tuples(
        st.integers(0, len(records) - 1),
        st.one_of(st.integers(0, MAX_DAY), st.just(MAX_DAY)),
    ), max_size=8))
    points = points + other + [
        (records[j], min(records[j].first_day + offset, MAX_DAY)) for j, offset in far
    ]
    cuts = sorted(draw(st.lists(st.integers(0, len(points)), max_size=6)))
    sequence = [points[a:b] for a, b in zip([0, *cuts], [*cuts, len(points)])]
    return space, hist, history, sequence + [points]


@settings(max_examples=100, deadline=None)
@given(case=batch_sequences())
def test_long_lived_index_rows_equal_fresh_assemble_and_oracle(case):
    space, hist, history, sequence = case
    index = TimelineIndex()
    for batch in sequence:
        X = assemble(batch, space, hist, index)
        assert X.tobytes() == assemble(batch, space, hist).tobytes()
        for row, (s, day) in zip(X, batch):
            assert row.tobytes() == oracle_assemble(s, day, space, history).tobytes()


def test_index_keeps_slots_apart_at_max_day(small_cohort):
    """A point at MAX_DAY on one record, a day-0 session on the next record."""
    space, hist = fitted(small_cohort), build_teacher_history(small_cohort)
    a = small_cohort.students["s1"]
    b = student("b", [session(0, (1.0, 2.0, 3.0, 4.0)), obs(1, outclass=[1, 2, 3], polarity=-1)])
    points = [(a, MAX_DAY), (b, 0), (b, MAX_DAY), (a, a.first_day)]
    index = TimelineIndex()
    for batch in ([points[0]], points, points[::-1]):
        X = assemble(batch, space, hist, index)
        for row, (s, day) in zip(X, batch):
            assert row.tobytes() == oracle_assemble(s, day, space, small_cohort).tobytes()


def test_index_refuses_days_past_max_day(small_cohort):
    space, hist = fitted(small_cohort), build_teacher_history(small_cohort)
    s1 = small_cohort.students["s1"]
    late = student("late", [session(1), obs(MAX_DAY + 1)])
    index = TimelineIndex()
    with pytest.raises(ValidationError, match="exceeds"):
        assemble([(s1, 3), (late, 1)], space, hist, index)
    with pytest.raises(ValidationError, match="exceeds"):
        assemble([(s1, MAX_DAY + 1)], space, hist, index)
    # a refused batch leaves the index answering as a fresh one
    points = [(s1, MAX_DAY), (s1, 3)]
    fresh = assemble(points, space, hist)
    assert assemble(points, space, hist, index).tobytes() == fresh.tobytes()


def test_assemble_matches_oracle_on_simulated_cohort():
    cohort = generate_cohort(SimConfig(n_students=40, seed=3))
    space = fit_feature_space(cohort, ALL_BLOCKS)
    points = [(s, d) for s in cohort for d in s.days]
    X = assemble(points, space, build_teacher_history(cohort))
    for row, (s, day) in zip(X, points):
        assert row.tobytes() == oracle_assemble(s, day, space, cohort).tobytes()


def test_assemble_single_column_sums_within_rounding_of_oracle():
    """With one column, numpy sums a row slice pairwise where the running sums
    add row by row, so the mean may differ from the oracle in the last bits."""
    schema = ColumnSchema(inclass_columns=("a",), outclass_columns=("b",))
    rng = np.random.default_rng(9)
    s = student("w", [
        obs(d, kind="class_session", inclass=[v], outclass=[-v]) for d, v in
        zip(range(1, 41), rng.normal(size=40) * 10.0 ** rng.integers(-3, 3, size=40))
    ])
    space = FeatureSpace(ALL_BLOCKS, fit_pca(rng.normal(size=(10, 1))), schema)
    X = assemble([(s, d) for d in s.days], space, build_teacher_history(cohort_of(s)))
    expected = np.vstack([oracle_assemble(s, d, space, cohort_of(s)) for d in s.days])
    np.testing.assert_allclose(X, expected, rtol=1e-12, atol=1e-12)


def test_assemble_empty_batch_has_full_width(small_cohort):
    space = fitted(small_cohort)
    assert assemble([], space, build_teacher_history(small_cohort)).shape == (0, len(space.names))


def test_assemble_rejects_non_finite_features(small_cohort):
    space = fitted(small_cohort)
    bad = student("bad", [obs(3, outclass=[np.inf, 0.0, 0.0])])
    with pytest.raises(ValidationError):
        assemble([(bad, 3)], space, build_teacher_history(small_cohort))
