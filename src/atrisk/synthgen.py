"""Synthetic cohort generator with a planted recency-driven dropout signal.

Each student gets a latent engagement level, a class schedule with variable
gaps, and a per-day discrete-time logistic dropout hazard that grows with
days since the last class and shrinks with engagement and recent follow-ups.
The hazard intercept is calibrated by bisection so the realized dropout rate
hits the configured target. The cohort's hazard logits are laid out once, as
one flat array that decides every student in one numpy pass per bisection step;
a student whose final cumulative dropout probability lies within a guard band
of its uniform draw is decided by the exact scalar loop instead, so each
decision equals the scalar one. At the calibrated intercept the same table
decides who drops out, and only those students walk their hazard days to find
the day. All randomness is fixed by the seed, so output files are
byte-identical across runs. Scalar draws take the cheapest numpy call with the
same bits: `uniform()` returns `0.0 + 1.0 * random()`, which is `random()`, and
`normal(0, s)` returns `0.0 + s * standard_normal()`, written out here.
`integers` and the span's `normal(mean, sd)` have no cheaper exact form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import CalibrationError, ValidationError, check_seed
from .events import Cohort, ColumnSchema, ObservationPair, StudentRecord, write_events

INCLASS_COLUMNS = ("attention", "qa_rounds", "loudness", "speech_rate")
OUTCLASS_COLUMNS = ("order_discount", "order_courses", "followup_sentiment")

CLASS_GAP_DAYS = (3, 7)  # inclusive range of days between scheduled classes
SKIP_GAP_DAYS = (3, 10)  # inclusive range of days a skipped class adds to a gap
RECENCY_SLOPE = 0.3  # hazard increase per day since last class
ENGAGEMENT_SLOPE = 0.8  # hazard decrease per unit engagement
FOLLOWUP_RELIEF = 0.4  # hazard decrease per recent follow-up
TEACHER_EFFECT_SD = 0.3
N_TEACHERS = 20
DECLINE_WINDOW_DAYS = 7  # planted pre-dropout behavioral decline
DECLINE_STRENGTH = 1.0
SILENT_EXIT_PROB = 0.75  # fraction of dropouts who stop responding
CALIBRATION_TOL = 0.02  # largest |realized - target| dropout rate accepted
MIN_SPAN_DAYS = 21  # span floor and least mean; exceeds every gap before a first class
MAX_MEAN_SPAN_DAYS = 3650  # spans are clipped to 2x the mean, so <= 7,300 hazard days
# Margins |(1 - survival) - uniform| below this go to the scalar loop. Each
# hazard factor 1 - sigmoid(alpha + z) lies in [0, 1]. Both paths form the same
# alpha + z and differ only in exp (numpy's vs libm's, each within a few ulp),
# so the two factors differ by less than 2^-46. A product of factors in [0, 1]
# moves by at most the sum of its factors' moves, plus one rounding of at most
# 2^-53 per multiply, so over at most 2 * MAX_MEAN_SPAN_DAYS = 7,300 hazard
# days the two final survivals differ by less than 7,300 * 2^-45 ~ 2.1e-10.
# The band is ~4,800x that.
SURVIVAL_GUARD_BAND = 1e-6


@dataclass(frozen=True)
class SimConfig:
    n_students: int = 500
    target_dropout_rate: float = 0.1616
    mean_span_days: int = 86
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.target_dropout_rate < 1.0:
            raise ValidationError("target_dropout_rate must be in (0, 1)")
        if self.mean_span_days < MIN_SPAN_DAYS or self.n_students < 1:
            raise ValidationError(
                f"mean_span_days must be at least {MIN_SPAN_DAYS} and n_students at least 1"
            )
        if self.mean_span_days > MAX_MEAN_SPAN_DAYS:
            raise ValidationError(f"mean_span_days must be at most {MAX_MEAN_SPAN_DAYS}")
        check_seed(self.seed)


def _sigmoid(z: float) -> float:
    return 1.0 / (1.0 + math.exp(-z))


@dataclass
class _Trajectory:
    """One student's pre-dropout plan and the inputs of its dropout draw."""

    student_id: str
    teacher_id: str
    events: dict[int, ObservationPair]  # keyed by day, pre-truncation
    risk_day: int  # the day after the first class, the first hazard day
    hazard_z: np.ndarray  # hazard logit minus the intercept, from risk_day to the span's end
    uniform: float


def _plan_student(idx: int, cfg: SimConfig, teacher_quality: np.ndarray) -> _Trajectory:
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, idx]))
    sid = f"s{idx:05d}"
    engagement = 0.0 + 1.0 * rng.standard_normal()
    tid_idx = int(rng.integers(0, N_TEACHERS))
    tid = f"t{tid_idx:03d}"
    tq = float(teacher_quality[tid_idx])

    start = int(rng.integers(1, 41))
    span = int(min(max(rng.normal(cfg.mean_span_days, cfg.mean_span_days * 0.25),
                       MIN_SPAN_DAYS), 2 * cfg.mean_span_days))
    end = start + span
    lo, hi = CLASS_GAP_DAYS

    events: dict[int, ObservationPair] = {}
    discount = 0.5 - 0.08 * engagement + (0.0 + 0.1 * rng.standard_normal())
    events[start] = ObservationPair(
        day=start,
        kind="purchase_event",
        outclass_values=_freeze([min(max(discount, 0.05), 0.95), float(rng.integers(5, 31)), 0.0]),
        teacher_id=tid,
    )

    session_days: list[int] = []
    day = start
    p_skip, p_positive = 0.25 * _sigmoid(-engagement), _sigmoid(0.4 * engagement)
    while True:
        gap = int(rng.integers(lo, hi + 1))
        if rng.random() < p_skip:
            gap += int(rng.integers(SKIP_GAP_DAYS[0], SKIP_GAP_DAYS[1] + 1))  # a skipped class
        day += gap
        if day >= end:
            break
        session_days.append(day)
        events[day] = ObservationPair(
            day=day,
            kind="class_session",
            inclass_values=_freeze(
                [
                    0.4 * engagement + (0.0 + 0.5 * rng.standard_normal()),
                    0.3 * engagement + (0.0 + 0.7 * rng.standard_normal()),
                    0.0 + 1.0 * rng.standard_normal(),
                    0.0 + 1.0 * rng.standard_normal(),
                ]
            ),
            teacher_id=tid,
        )
        if rng.random() < 0.08:
            rs_day = day + 2
            if rs_day < end and rs_day not in events:
                events[rs_day] = ObservationPair(day=rs_day, kind="reschedule", teacher_id=tid)

    # Daily follow-up contacts from the service staff, independent of the class
    # schedule, so observation days also fall inside long no-class gaps.
    for fu_day in range(start + 1, end):
        if fu_day in events or rng.random() >= 0.4:
            continue
        pol = 1 if rng.random() < p_positive else -1
        sentiment = 0.2 * engagement + (0.0 + 0.6 * rng.standard_normal())
        events[fu_day] = ObservationPair(
            day=fu_day,
            kind="follow_up",
            outclass_values=_freeze([0.0, 0.0, sentiment]),
            teacher_id=tid,
            polarity=pol,
        )

    risk_day = session_days[0] + 1  # there is a first class: see MIN_SPAN_DAYS
    days = np.arange(risk_day, end + 1)
    sessions = np.array(session_days)
    # follow-ups were added in day order, so this is sorted
    fu_days = np.array([d for d, o in events.items() if o.kind == "follow_up"], dtype=np.intp)
    gap = days - sessions[np.searchsorted(sessions, days) - 1]
    recent_fu = np.searchsorted(fu_days, days) - np.searchsorted(fu_days, days - 7)
    z = RECENCY_SLOPE * gap - ENGAGEMENT_SLOPE * engagement - FOLLOWUP_RELIEF * recent_fu + tq
    return _Trajectory(student_id=sid, teacher_id=tid, events=events,
                       risk_day=risk_day, hazard_z=z, uniform=rng.random())


def _freeze(values: list[float]) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    arr.flags.writeable = False
    return arr


def _plant_decline(
    kept: dict[int, ObservationPair],
    dropout_day: int,
    teacher_id: str,
    rng: np.random.Generator,
) -> None:
    """Degrade the final pre-dropout window in place (the planted recency signal).

    Severity rises convexly toward the dropout day, so observations closest to
    t_n are the most clearly at-risk: class features sink, follow-up sentiment
    turns negative, and some sessions are skipped outright. A fraction of
    dropouts additionally go silent for the last few days, so their terminal
    observations look different from students who stay in contact to the end.
    """
    start = min(kept)

    # Silent exits: drop all contact in the final 2-5 days before the event.
    if rng.random() < SILENT_EXIT_PROB:
        gap = int(rng.integers(4, 7))
        if dropout_day - gap > start + 1:
            for d in [d for d in kept if d >= dropout_day - gap]:
                del kept[d]
    else:
        # Engaged exits: the service staff keeps reaching out, so these
        # students usually have an observation on the eve of the dropout.
        eve = dropout_day - 1
        if eve not in kept and eve > start and rng.random() < 0.7:
            kept[eve] = ObservationPair(
                day=eve,
                kind="follow_up",
                outclass_values=_freeze([0.0, 0.0, 0.0 + 0.6 * rng.standard_normal()]),
                teacher_id=teacher_id,
                polarity=1,
            )

    n_sessions = sum(1 for o in kept.values() if o.kind == "class_session")
    for d in sorted(kept):
        u = (dropout_day - d) / DECLINE_WINDOW_DAYS
        if u >= 1.0:
            continue
        obs = kept[d]
        if u >= 0.6:
            # Last-ditch rally at the far edge of the window: a burst of
            # apparent engagement right before the collapse begins. It looks
            # exactly like an ordinary good day, so it carries no signal.
            lift = 3.2 * DECLINE_STRENGTH * (u - 0.6) / 0.4
            if obs.kind == "class_session":
                vals = np.array(obs.inclass_values)
                vals[0] += 0.7 * lift
                kept[d] = replace(obs, inclass_values=_freeze(vals))
            elif obs.kind == "follow_up":
                vals = np.array(obs.outclass_values)
                vals[2] += lift
                kept[d] = replace(obs, outclass_values=_freeze(vals), polarity=1)
            continue
        sev = (1.0 - u) ** 2
        if obs.kind == "class_session":
            if n_sessions > 2 and rng.random() < 0.6 * sev:
                del kept[d]  # pre-dropout class skipping
                n_sessions -= 1
                continue
            vals = np.array(obs.inclass_values)
            vals[0] -= DECLINE_STRENGTH * sev  # attention
            vals[1] -= 0.7 * DECLINE_STRENGTH * sev  # qa_rounds
            vals[3] -= 0.5 * DECLINE_STRENGTH * sev  # speech_rate
            kept[d] = replace(obs, inclass_values=_freeze(vals))
        elif obs.kind == "follow_up":
            vals = np.array(obs.outclass_values)
            vals[2] -= DECLINE_STRENGTH * sev  # sentiment
            polarity = -1 if sev > 0.5 else obs.polarity
            kept[d] = replace(obs, outclass_values=_freeze(vals), polarity=polarity)


def _dropout_day(traj: _Trajectory, alpha: float) -> int | None:
    """First day the cumulative dropout probability crosses the student's uniform."""
    survival = 1.0
    for d, z in enumerate(traj.hazard_z.tolist(), traj.risk_day):
        survival *= 1.0 - _sigmoid(alpha + z)
        if 1.0 - survival >= traj.uniform:
            return d
    return None


class _HazardTable:
    """A cohort's hazard logits, laid out once: one day-ordered segment per
    student, in cohort order.

    `drops(alpha)[i]` equals `_dropout_day(trajectories[i], alpha) is not None`.
    Survival never rises when multiplied by a factor in [0, 1], so
    `_dropout_day` crosses the uniform on some day exactly when it crosses on
    the last one; only the final survival matters. Every student has a hazard
    day (`MIN_SPAN_DAYS`), so no segment is empty.
    """

    def __init__(self, trajectories: list[_Trajectory]):
        self.trajectories = trajectories
        lengths = [len(t.hazard_z) for t in trajectories]
        self.starts = np.cumsum([0, *lengths], dtype=np.intp)[:-1]
        self.z = np.concatenate([t.hazard_z for t in trajectories])
        self.uniform = np.array([t.uniform for t in trajectories], dtype=np.float64)

    def drops(self, alpha: float) -> np.ndarray:
        """Whether each student drops out at intercept `alpha`."""
        with np.errstate(under="ignore"):  # survival may underflow to 0 at large alpha
            factors = 1.0 - 1.0 / (1.0 + np.exp(-(alpha + self.z)))
            survival = np.multiply.reduceat(factors, self.starts)
        margin = (1.0 - survival) - self.uniform
        drops = margin >= SURVIVAL_GUARD_BAND
        for i in np.flatnonzero(np.abs(margin) < SURVIVAL_GUARD_BAND):
            drops[i] = _dropout_day(self.trajectories[i], alpha) is not None
        return drops


def _calibrate_alpha(table: _HazardTable, cfg: SimConfig) -> tuple[float, np.ndarray]:
    """Bisect the hazard intercept until the realized rate hits the target;
    return it and whether each student drops out at it."""
    target = cfg.target_dropout_rate

    def rate(alpha: float) -> float:
        return float(table.drops(alpha).mean())

    lo, hi = -20.0, 5.0
    if rate(lo) > target or rate(hi) < target:
        raise CalibrationError(
            f"target rate {target} unreachable: rate({lo})={rate(lo):.4f}, "
            f"rate({hi})={rate(hi):.4f}"
        )
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if rate(mid) < target:
            lo = mid
        else:
            hi = mid
    drops = table.drops(hi)
    if abs(drops.mean() - target) > CALIBRATION_TOL:
        raise CalibrationError(
            f"calibration failed: realized rate {drops.mean():.4f} vs target {target:.4f} "
            f"(tolerance {CALIBRATION_TOL}); hazard steps may be too coarse"
        )
    return hi, drops


def _plan_cohort(cfg: SimConfig) -> list[_Trajectory]:
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 999_983]))
    teacher_quality = rng.normal(0.0, TEACHER_EFFECT_SD, size=N_TEACHERS)
    return [_plan_student(i, cfg, teacher_quality) for i in range(cfg.n_students)]


def generate_cohort(cfg: SimConfig) -> Cohort:
    """Simulate the cohort."""
    trajectories = _plan_cohort(cfg)
    alpha, drops = _calibrate_alpha(_HazardTable(trajectories), cfg)

    students: dict[str, StudentRecord] = {}
    for idx, traj in enumerate(trajectories):
        if drops[idx]:
            dd = _dropout_day(traj, alpha)
            kept = {d: o for d, o in traj.events.items() if d < dd}
            _plant_decline(
                kept, dd, traj.teacher_id,
                np.random.default_rng(np.random.SeedSequence([cfg.seed, idx, 7])),
            )
            kept[dd] = ObservationPair(day=dd, kind="dropout_event", teacher_id=traj.teacher_id)
            status = "dropout"
        else:
            kept = dict(traj.events)
            status = "completion"
        obs = tuple(kept[d] for d in sorted(kept))
        students[traj.student_id] = StudentRecord(
            student_id=traj.student_id,
            observations=obs,
            final_status=status,
            teacher_id=traj.teacher_id,
        )

    schema = ColumnSchema(
        inclass_columns=INCLASS_COLUMNS, outclass_columns=OUTCLASS_COLUMNS
    )
    return Cohort(students=students, schema=schema)


def generate(cfg: SimConfig, out_dir: str | Path) -> dict[str, Path]:
    """Write events.jsonl and schema.json under `out_dir`."""
    return write_cohort(out_dir, generate_cohort(cfg))


def write_cohort(out_dir: str | Path, cohort: Cohort) -> dict[str, Path]:
    """Write a cohort's events.jsonl and schema.json under `out_dir`."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    events_path = out / "events.jsonl"
    schema_path = out / "schema.json"
    write_events(cohort, events_path)
    cohort.schema.dump(schema_path)
    return {"events": events_path, "schema": schema_path}
