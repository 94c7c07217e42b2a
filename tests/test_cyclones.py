from __future__ import annotations

import math
from dataclasses import replace
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import T0, field_block, make_field
from wxverify.errors import MissingFix, SeedOutsideDomain, UnitOutOfRange
from wxverify.grid import (EARTH_RADIUS_KM, SIX_HOURS, FieldBlock, GeoGrid,
                           VariableId, haversine_km, haversine_km_grid)
from wxverify.cyclones import (TRUTH_SOURCE, StormFix, StormTrack,
                               StormTracker, TrackerConfig, homogeneous_sample,
                               intensity_errors, track_dpe, track_storm)


def regional_grid():
    # 0.25 deg, 35N..5N, 120E..160E
    return GeoGrid.uniform(35.0, -0.25, 121, 120.0, 0.25, 161)


def analytic_centers(lat0, lon0, u_ms, v_ms, n_steps):
    centers = []
    for k in range(n_steps + 1):
        seconds = k * 21600.0
        m_per_deg = EARTH_RADIUS_KM * 1000.0 * math.pi / 180.0
        lat = lat0 + v_ms * seconds / m_per_deg
        lon = lon0 + u_ms * seconds / (m_per_deg * math.cos(math.radians(lat0)))
        centers.append((lat, lon))
    return centers


def vortex_field_set(grid, centers, depth=3000.0, efold=300.0, base=101000.0,
                     wind_peak=35.0):
    msl, u10, v10 = [], [], []
    for k, (lat0, lon0) in enumerate(centers):
        when = T0 + k * SIX_HOURS
        d = haversine_km_grid(lat0, lon0, grid)
        msl.append(make_field(grid, base - depth * np.exp(-((d / efold) ** 2)),
                              VariableId.MSL, when, 6 * k))
        speed = wind_peak * (d / efold) * np.exp(1.0 - d / efold)
        u10.append(make_field(grid, speed, VariableId.U10, when, 6 * k))
        v10.append(make_field(grid, np.zeros(grid.shape), VariableId.V10,
                              when, 6 * k))
    return msl, u10, v10


def blocks(*per_variable):
    """Each variable's fields, one per lead, as the block ``track_storm``
    takes."""
    return [field_block(*fields) for fields in per_variable]


def fix(k, lat=20.0, lon=150.0, mslp=98000.0, wind=40.0):
    return StormFix(T0 + k * SIX_HOURS, lat, lon, mslp, wind)


def truth_track(storm_id, n_fixes, **kw):
    fixes = tuple(fix(k, **kw) for k in range(n_fixes))
    return StormTrack(storm_id, TRUTH_SOURCE, T0, fixes,
                      tuple([True] * n_fixes))


def model_track(storm_id, model, n_tracked, n_leads, **kw):
    fixes = tuple(fix(k, **kw) for k in range(n_tracked))
    mask = tuple(k < n_tracked for k in range(n_leads))
    return StormTrack(storm_id, model, T0, fixes, mask)


class TestStormFix:
    def test_plausibility_band(self):
        fix(0, mslp=87000.0)  # 870 hPa deep but plausible
        with pytest.raises(UnitOutOfRange):
            fix(0, mslp=60000.0)  # 600 hPa impossible
        with pytest.raises(UnitOutOfRange):
            fix(0, wind=-1.0)


class TestStormTrack:
    def test_cadence_enforced(self):
        bad = (fix(0), StormFix(T0 + timedelta(hours=13), 20, 150, 98000, 40))
        with pytest.raises(ValueError):
            StormTrack("S", TRUTH_SOURCE, T0, bad, (True, True))

    def test_mask_must_be_contiguous_prefix(self):
        with pytest.raises(ValueError):
            StormTrack("S", TRUTH_SOURCE, T0, (fix(0),),
                       (False, True))

    def test_fix_lookup(self):
        track = truth_track("S", 3)
        assert track.fix_at_lead(2) is not None
        assert track.fix_at_lead(3) is None
        assert track.fix_at_time(T0 + 2 * SIX_HOURS) == track.fixes[2]
        assert track.fix_at_time(T0 + timedelta(hours=3)) is None


class TestTracker:
    def test_stationary_vortex_recovered(self):
        grid = regional_grid()
        centers = [(20.05, 150.07)] * 9
        msl, u10, v10 = vortex_field_set(grid, centers)
        track = track_storm(*blocks(msl, u10, v10), centers[0],
                            storm_id="SYN", source="persistence")
        assert all(track.tracked_mask)
        spacing_km = 0.25 * 111.2 * math.sqrt(2)  # grid half-diagonal x2
        for k, storm_fix in enumerate(track.fixes):
            err = haversine_km(storm_fix.position, centers[k])
            assert err < spacing_km
            assert abs(storm_fix.min_mslp_pa - (101000.0 - 3000.0)) < 50.0

    def test_translating_vortex_within_grid_spacing(self):
        grid = regional_grid()
        centers = analytic_centers(20.05, 150.07, -5.0, 0.0, 20)
        msl, u10, v10 = vortex_field_set(grid, centers)
        track = track_storm(*blocks(msl, u10, v10), centers[0],
                            storm_id="SYN", source="persistence")
        assert all(track.tracked_mask)
        for k, storm_fix in enumerate(track.fixes):
            assert haversine_km(storm_fix.position, centers[k]) < 28.0

    def test_max_wind_sampled_near_center(self):
        grid = regional_grid()
        centers = [(20.0, 150.0)] * 3
        msl, u10, v10 = vortex_field_set(grid, centers, wind_peak=35.0)
        track = track_storm(*blocks(msl, u10, v10), centers[0],
                            storm_id="SYN", source="m")
        # peak tangential wind is wind_peak at r = efold (250 km ring is
        # inside the wind radius)
        assert track.fixes[0].max_wind_ms == pytest.approx(35.0, rel=0.05)

    def test_no_depression_never_tracks(self):
        grid = regional_grid()
        flat = [make_field(grid, np.full(grid.shape, 101500.0),
                           VariableId.MSL, T0 + k * SIX_HOURS, 6 * k)
                for k in range(4)]
        zeros = [make_field(grid, np.zeros(grid.shape), VariableId.U10,
                            T0 + k * SIX_HOURS, 6 * k) for k in range(4)]
        zeros_v = [make_field(grid, np.zeros(grid.shape), VariableId.V10,
                              T0 + k * SIX_HOURS, 6 * k) for k in range(4)]
        track = track_storm(*blocks(flat, zeros, zeros_v), (20.0, 150.0),
                            storm_id="S", source="m")
        assert track.tracked_mask == (False, False, False, False)
        assert track.fixes == ()

    def test_loss_is_terminal(self):
        grid = regional_grid()
        centers = [(20.0, 150.0)] * 5
        msl, u10, v10 = vortex_field_set(grid, centers)
        # fill the depression from lead 2 onward
        for k in (2, 3, 4):
            msl[k] = replace(msl[k], values=np.full((1, *grid.shape),
                                                    101500.0))
        track = track_storm(*blocks(msl, u10, v10), centers[0],
                            storm_id="S", source="m")
        assert track.tracked_mask == (True, True, False, False, False)

    def test_seed_outside_domain(self):
        grid = regional_grid()
        centers = [(20.0, 150.0)] * 2
        msl, u10, v10 = vortex_field_set(grid, centers)
        with pytest.raises(SeedOutsideDomain):
            track_storm(*blocks(msl, u10, v10), (50.0, 150.0),
                        storm_id="S", source="m")

    def test_tie_break_north_then_west(self):
        grid = regional_grid()
        values = np.full(grid.shape, 101000.0)
        values[40, 80] = 98000.0
        values[60, 60] = 98000.0  # same depth, further south
        when = T0
        msl = [make_field(grid, values, VariableId.MSL, when, 0)]
        zero = [make_field(grid, np.zeros(grid.shape), VariableId.U10, when, 0)]
        zero_v = [make_field(grid, np.zeros(grid.shape), VariableId.V10, when, 0)]
        seed = (float(grid.lat_deg[50]), float(grid.lon_deg[70]))
        track = track_storm(*blocks(msl, zero, zero_v), seed, storm_id="S",
                            source="m",
                            config=TrackerConfig(search_radius_km=2000.0))
        assert track.fixes[0].lat == float(grid.lat_deg[40])
        assert track.fixes[0].lon == float(grid.lon_deg[80])

    @pytest.mark.parametrize("wind", ["u10", "v10"])
    @pytest.mark.parametrize("shift", ["valid_times", "lead_hours"])
    def test_winds_must_line_up_with_msl(self, wind, shift):
        grid = regional_grid()
        centers = [(20.0, 150.0)] * 3
        msl, u10, v10 = blocks(*vortex_field_set(grid, centers))
        winds = {"u10": u10, "v10": v10}
        # six hours later than MSL's, in valid times or in leads
        winds[wind] = replace(winds[wind], **{shift: tuple(
            value + (SIX_HOURS if shift == "valid_times" else 6)
            for value in getattr(winds[wind], shift))})
        with pytest.raises(ValueError, match=f"{wind} valid times or leads "
                                             f"differ from MSL's"):
            track_storm(msl, winds["u10"], winds["v10"], centers[0],
                        storm_id="S", source="m")

    def test_blocks_must_share_one_grid(self):
        centers = [(20.0, 150.0)] * 2
        msl, u10, v10 = blocks(*vortex_field_set(regional_grid(), centers))
        other = GeoGrid.uniform(35.0, -0.5, 61, 120.0, 0.5, 81)
        with pytest.raises(ValueError, match="share one grid"):
            track_storm(msl, replace(u10, grid=other), v10, centers[0],
                        storm_id="S", source="m")

    def test_msl_leads_must_run_from_zero_every_6_h(self):
        centers = [(20.0, 150.0)] * 3
        msl, u10, v10 = blocks(*vortex_field_set(regional_grid(), centers))
        leads = (0, 6, 18)
        with pytest.raises(ValueError, match="expected 0, 6, 12"):
            track_storm(replace(msl, lead_hours=leads),
                        replace(u10, lead_hours=leads),
                        replace(v10, lead_hours=leads), centers[0],
                        storm_id="S", source="m")

    def test_determinism(self):
        grid = regional_grid()
        centers = analytic_centers(20.05, 150.07, -5.0, 2.0, 8)
        msl, u10, v10 = vortex_field_set(grid, centers)
        t1 = track_storm(*blocks(msl, u10, v10), centers[0],
                         storm_id="S", source="m")
        t2 = track_storm(*blocks(msl, u10, v10), centers[0],
                         storm_id="S", source="m")
        assert t1 == t2


CUTOFF = 100500.0
DEEP = np.float32(CUTOFF - 900.0)
#: Background MSL around the cutoff, so the discs also hold shallow
#: candidates and nodes of one value tie for the minimum.
BACKGROUND = np.array([CUTOFF + 300.0, CUTOFF + 100.0, CUTOFF - 200.0,
                       CUTOFF - 400.0], dtype=np.float32)


def tracker_case(wrap, n_lat, n_lon, lats, lon_span, n_leads, start, move,
                 twin, lost_at, search_km, wind_km, noise):
    """A grid, the blocks and seed of one tracking problem, and a config.

    ``lats`` are the first and last latitude; on a wrapping grid the
    columns cover the circle from a fraction ``lon_span[0] / 360`` of a
    step east of 0 degrees, otherwise they span ``lon_span``. A minimum
    DEEP moves from node ``start`` by ``move`` (rows, columns) a step,
    wrapping in longitude on a wrapping grid, and an equal minimum sits
    ``twin`` nodes away from it (None: no twin). From step ``lost_at``
    every node is above the cutoff.
    """
    if wrap:
        lons = (np.arange(n_lon) + lon_span[0] / 360.0) * (360.0 / n_lon)
    else:
        lons = np.linspace(lon_span[0], lon_span[1], n_lon)
    grid = GeoGrid(np.linspace(lats[0], lats[1], n_lat), lons)
    rng = np.random.default_rng(noise)
    msl = rng.choice(BACKGROUND, (n_leads, n_lat, n_lon),
                     p=[0.4, 0.3, 0.2, 0.1])

    def node(i, j):
        i = min(max(i, 0), n_lat - 1)
        return (i, j % n_lon) if wrap else (i, min(max(j, 0), n_lon - 1))

    for k in range(n_leads):
        i, j = node(start[0] + k * move[0], start[1] + k * move[1])
        msl[k, i, j] = DEEP
        if twin is not None:
            msl[(k, *node(i + twin[0], j + twin[1]))] = DEEP
    if lost_at is not None:
        msl[lost_at:] = BACKGROUND[0]
    winds = (np.float32(15.0) * rng.standard_normal((2, *msl.shape),
                                                    dtype=np.float32))
    times = tuple(T0 + k * SIX_HOURS for k in range(n_leads))
    leads = tuple(6 * k for k in range(n_leads))
    msl, u10, v10 = (FieldBlock(grid, variable, times, leads, values)
                     for variable, values in ((VariableId.MSL, msl),
                                              (VariableId.U10, winds[0]),
                                              (VariableId.V10, winds[1])))
    seed = (float(grid.lat_deg[start[0]]), float(grid.lon_deg[start[1]]))
    return (grid, (msl, u10, v10), seed,
            TrackerConfig(search_km, wind_km, CUTOFF))


def both_trackers(blocks, seed, config):
    """The windowed track and the full-grid oracle's."""
    kw = dict(storm_id="S", source="m", config=config)
    return (track_storm(*blocks, seed, **kw),
            oracles.track_storm_full_grid(*blocks, seed, **kw))


def assert_same_track(got, want):
    assert got.tracked_mask == want.tracked_mask
    for mine, theirs in zip(got.fixes, want.fixes, strict=True):
        assert repr(mine) == repr(theirs)
    assert got == want


@st.composite
def tracker_cases(draw):
    wrap = draw(st.booleans())
    n_lat, n_lon = draw(st.integers(2, 24)), draw(st.integers(2, 40))
    top = draw(st.sampled_from([90.0, 80.0, 45.0, 10.0]))
    lats = (top, draw(st.sampled_from([-90.0, -60.0, top - 30.0])))
    first = draw(st.floats(0.0, 300.0))
    lon_span = (first, draw(st.floats(first + 1.0, 359.5)))
    n_leads = draw(st.integers(1, 8))

    def radius():  # one in five beyond half the circumference
        return draw(st.sampled_from([25000.0, 30000.0])
                    if draw(st.integers(0, 4)) == 0
                    else st.floats(50.0, 4000.0))

    return dict(
        wrap=wrap, n_lat=n_lat, n_lon=n_lon, lats=lats, lon_span=lon_span,
        n_leads=n_leads,
        start=(draw(st.integers(0, n_lat - 1)),
               draw(st.integers(0, n_lon - 1))),
        move=(draw(st.integers(-1, 1)), draw(st.integers(-2, 2))),
        twin=draw(st.none() | st.tuples(st.integers(-2, 2),
                                        st.integers(-n_lon + 1, n_lon - 1))),
        lost_at=draw(st.none() | st.integers(1, n_leads)),
        search_km=radius(), wind_km=radius(),
        noise=draw(st.integers(0, 2**32 - 1)))


#: 2 degree global grid: row 0 is the north pole, column 0 is 0 degrees.
GLOBAL_2DEG = dict(wrap=True, n_lat=91, n_lon=180, lats=(90.0, -90.0),
                   lon_span=(0.0, 0.0), noise=7)
CASES = {
    # moves west 2 columns a step from 4 degrees E: 0/360 is crossed
    # between the second and the third fix
    "storm_crosses_0_360": dict(
        GLOBAL_2DEG, n_leads=6, start=(35, 2), move=(0, -2), twin=None,
        lost_at=None, search_km=450.0, wind_km=250.0),
    # equal minima at 358 and 2 degrees E, on either side of the seam:
    # the smaller column, 2 degrees E, is the fix
    "tie_split_across_the_seam": dict(
        GLOBAL_2DEG, n_leads=3, start=(35, 179), move=(0, 0), twin=(0, 2),
        lost_at=None, search_km=450.0, wind_km=250.0),
    # 86 N: the 1000 km search disc covers the pole, and the minimum at
    # 86 N on the opposite meridian lies across it
    "disc_reaches_a_pole": dict(
        GLOBAL_2DEG, n_leads=3, start=(2, 10), move=(0, 90), twin=None,
        lost_at=None, search_km=1000.0, wind_km=800.0),
    "lost_mid_track": dict(
        GLOBAL_2DEG, n_leads=6, start=(35, 2), move=(0, -2), twin=None,
        lost_at=3, search_km=450.0, wind_km=250.0),
    # radii beyond half the circumference hold the whole grid: of the two
    # equal minima the northern one is the fix, however far away
    "radius_larger_than_the_grid": dict(
        wrap=False, n_lat=9, n_lon=11, lats=(40.0, 0.0),
        lon_span=(100.0, 150.0), noise=3, n_leads=3, start=(4, 5),
        move=(1, 2), twin=(-3, -5), lost_at=None, search_km=30000.0,
        wind_km=25000.0),
}


class TestWindowedTracker:
    """The tracker searches the index box around each fix, and finds what
    the full-grid search (``oracles.track_storm_full_grid``) finds."""

    @given(case=tracker_cases())
    @settings(max_examples=200, deadline=None)
    @example(case=dict(CASES["storm_crosses_0_360"], search_km=2000.0))
    @example(case=dict(CASES["tie_split_across_the_seam"], start=(35, 0),
                       twin=(0, -1)))
    def test_matches_the_full_grid_search(self, case):
        _, blocks, seed, config = tracker_case(**case)
        assert_same_track(*both_trackers(blocks, seed, config))

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_named_case_matches_the_full_grid_search(self, name):
        grid, blocks, seed, config = tracker_case(**CASES[name])
        got, want = both_trackers(blocks, seed, config)
        assert_same_track(got, want)
        lons = [f.lon for f in got.fixes]
        if name == "storm_crosses_0_360":
            assert lons == [4.0, 0.0, 356.0, 352.0, 348.0, 344.0]
        elif name == "tie_split_across_the_seam":
            assert lons == [2.0, 2.0, 2.0]
        elif name == "disc_reaches_a_pole":
            assert [(f.lat, f.lon) for f in got.fixes] == [
                (86.0, 20.0), (86.0, 200.0), (86.0, 20.0)]
        elif name == "lost_mid_track":
            assert got.tracked_mask == (True,) * 3 + (False,) * 3
        else:
            assert [(f.lat, f.lon) for f in got.fixes] == [
                (float(grid.lat_deg[1 + k]), float(grid.lon_deg[2 * k]))
                for k in range(3)]


def in_runs(block, run_layers):
    """``block`` cut into blocks of ``run_layers`` consecutive leads (the
    last may hold fewer), as a pipeline reads a stack."""
    return [replace(block, valid_times=block.valid_times[a:a + run_layers],
                    lead_hours=block.lead_hours[a:a + run_layers],
                    values=block.values[a:a + run_layers])
            for a in range(0, len(block.lead_hours), run_layers)]


def track_in_runs(blocks, seeds, config, run_layers):
    """The tracks of ``seeds``, (storm id, position) pairs, advanced
    together through ``blocks`` a run of ``run_layers`` leads at a time."""
    tracker = StormTracker(seeds, source="m", config=config)
    for run in zip(*(in_runs(block, run_layers) for block in blocks),
                   strict=True):
        tracker.advance(*run)
    return tracker.tracks()


def assert_each_storm_as_full_grid(blocks, seeds, config, run_layers):
    got = track_in_runs(blocks, seeds, config, run_layers)
    assert [track.storm_id for track in got] == [s for s, _ in seeds]
    for (storm_id, seed), track in zip(seeds, got, strict=True):
        assert_same_track(track, oracles.track_storm_full_grid(
            *blocks, seed, storm_id=storm_id, source="m", config=config))


class TestRunByRunTracker:
    """Storms of one init advance together a run of leads at a time, and
    each track is the full-grid search's over all leads at once."""

    @given(case=tracker_cases(), run_layers=st.integers(1, 3),
           others=st.lists(st.tuples(st.integers(0, 2**16),
                                     st.integers(0, 2**16)), max_size=3))
    @settings(max_examples=150, deadline=None)
    @example(case=CASES["lost_mid_track"], run_layers=2, others=[(35, 90)])
    def test_matches_the_full_grid_search(self, case, run_layers, others):
        # the case's storm and storms seeded at other nodes, which track
        # the minima near them or are lost
        grid, blocks, seed, config = tracker_case(**case)
        seeds = [("S", seed)] + [
            (f"X{n}", (float(grid.lat_deg[i % grid.n_lat]),
                       float(grid.lon_deg[j % grid.n_lon])))
            for n, (i, j) in enumerate(others)]
        assert_each_storm_as_full_grid(blocks, seeds, config, run_layers)

    @pytest.mark.parametrize("run_layers", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_named_case_in_runs(self, name, run_layers):
        _, blocks, seed, config = tracker_case(**CASES[name])
        got, = track_in_runs(blocks, [("S", seed)], config, run_layers)
        assert_same_track(got, track_storm(*blocks, seed, storm_id="S",
                                           source="m", config=config))

    def test_lost_mid_run_stays_lost(self):
        # S is lost at lead step 3, the middle of the second run of 2
        # leads, and stays lost when its minimum comes back at its last
        # fix in the third run; T, seeded on a minimum far from S's that
        # stays, is tracked through every lead
        grid, (msl, u10, v10), seed, config = tracker_case(
            **CASES["lost_mid_track"])
        values = msl.values.copy()
        values[:, 80, 100] = DEEP
        values[4:, 35, 178] = DEEP
        blocks = (replace(msl, values=values), u10, v10)
        at = (float(grid.lat_deg[80]), float(grid.lon_deg[100]))
        seeds = [("S", seed), ("T", at)]
        lost, kept = track_in_runs(blocks, seeds, config, 2)
        assert lost.tracked_mask == (True,) * 3 + (False,) * 3
        assert [f.position for f in kept.fixes] == [at] * 6
        assert_each_storm_as_full_grid(blocks, seeds, config, 2)

    def test_runs_must_continue_the_leads(self):
        centers = [(20.0, 150.0)] * 4
        msl, u10, v10 = blocks(*vortex_field_set(regional_grid(), centers))
        runs = list(zip(*(in_runs(b, 2) for b in (msl, u10, v10))))
        tracker = StormTracker([("S", centers[0])], source="m")
        tracker.advance(*runs[0])
        with pytest.raises(ValueError, match=r"MSL leads are \(0, 6\), "
                                             r"expected 12, 18, 24, \.\.\. h"):
            tracker.advance(*runs[0])
        other = GeoGrid.uniform(35.0, -0.5, 61, 120.0, 0.5, 81)
        with pytest.raises(ValueError, match="share one grid"):
            tracker.advance(*(replace(b, grid=other) for b in runs[1]))
        tracker.advance(*runs[1])
        track, = tracker.tracks()
        assert track == track_storm(msl, u10, v10, centers[0], storm_id="S",
                                    source="m")

    def test_tracks_need_a_run(self):
        with pytest.raises(ValueError, match="no run of leads"):
            StormTracker([("S", (20.0, 150.0))], source="m").tracks()

    def test_first_seed_outside_the_grid_is_named(self):
        centers = [(20.0, 150.0)] * 2
        fields = blocks(*vortex_field_set(regional_grid(), centers))
        tracker = StormTracker([("S", centers[0]), ("T", (50.0, 150.0)),
                                ("U", (20.0, 100.0))], source="m")
        with pytest.raises(SeedOutsideDomain, match="seed latitude 50.0"):
            tracker.advance(*fields)


class TestHomogeneousSample:
    def test_everything_tracked(self):
        truth = {"A": truth_track("A", 5), "B": truth_track("B", 5)}
        models = {
            "m1": {("A", T0): model_track("A", "m1", 5, 5),
                   ("B", T0): model_track("B", "m1", 5, 5)},
            "m2": {("A", T0): model_track("A", "m2", 5, 5),
                   ("B", T0): model_track("B", "m2", 5, 5)},
        }
        sample = homogeneous_sample(models, truth, 5)
        for lead in range(5):
            assert sample[lead] == {("A", T0), ("B", T0)}

    def test_one_model_loses_storm(self):
        truth = {"A": truth_track("A", 8)}
        models = {
            "m1": {("A", T0): model_track("A", "m1", 8, 8)},
            "m2": {("A", T0): model_track("A", "m2", 5, 8)},
        }
        sample = homogeneous_sample(models, truth, 8)
        assert ("A", T0) in sample[4]
        assert ("A", T0) not in sample[5]

    def test_truth_coverage_limits_sample(self):
        truth = {"A": truth_track("A", 3)}  # truth ends at lead 2
        models = {"m": {("A", T0): model_track("A", "m", 6, 6)}}
        sample = homogeneous_sample(models, truth, 6)
        assert sample[2] and not sample[3]

    def test_randomized_masks_match_set_algebra(self, rng):
        storms = ["A", "B", "C"]
        n_leads = 6
        truth = {s: truth_track(s, int(rng.integers(1, n_leads + 1)))
                 for s in storms}
        lengths = {m: {s: int(rng.integers(0, n_leads + 1)) for s in storms}
                   for m in ("m1", "m2", "m3")}
        models = {m: {(s, T0): model_track(s, m, lengths[m][s], n_leads)
                      for s in storms} for m in lengths}
        sample = homogeneous_sample(models, truth, n_leads)
        for lead in range(n_leads):
            expected = {(s, T0) for s in storms
                        if all(lengths[m][s] > lead for m in lengths)
                        and len(truth[s].fixes) > lead}
            assert sample[lead] == expected

    def test_mismatched_storm_lists_rejected(self):
        truth = {"A": truth_track("A", 3)}
        models = {"m1": {("A", T0): model_track("A", "m1", 3, 3)},
                  "m2": {}}
        with pytest.raises(ValueError):
            homogeneous_sample(models, truth, 3)


class TestTrackScores:
    def test_perfect_model_zero_everywhere(self):
        truth = {"A": truth_track("A", 4)}
        tracks = {("A", T0): model_track("A", "m", 4, 4)}
        sample = [frozenset({("A", T0)})] * 4
        assert track_dpe(tracks, truth, sample) == [0.0] * 4
        for err in intensity_errors(tracks, truth, sample):
            assert (err.mae_mslp_hpa, err.bias_mslp_hpa,
                    err.mae_wind_ms, err.bias_wind_ms) == (0, 0, 0, 0)

    def test_one_degree_equatorial_offset(self):
        truth = {"A": truth_track("A", 1, lat=0.0, lon=150.0)}
        tracks = {("A", T0): model_track("A", "m", 1, 1, lat=0.0, lon=151.0)}
        sample = [frozenset({("A", T0)})]
        dpe = track_dpe(tracks, truth, sample)
        expected = math.pi * EARTH_RADIUS_KM / 180.0
        assert dpe[0] == pytest.approx(expected, abs=1e-6)

    def test_two_storm_mean(self):
        truth = {"A": truth_track("A", 1), "B": truth_track("B", 1)}
        tracks = {
            ("A", T0): model_track("A", "m", 1, 1, mslp=99000.0),
            ("B", T0): model_track("B", "m", 1, 1, mslp=97600.0),
        }
        sample = [frozenset({("A", T0), ("B", T0)})]
        err = intensity_errors(tracks, truth, sample)[0]
        # errors +10 and -4 hPa
        assert err.mae_mslp_hpa == pytest.approx(7.0)
        assert err.bias_mslp_hpa == pytest.approx(3.0)

    def test_empty_sample_gives_none(self):
        truth = {"A": truth_track("A", 2)}
        tracks = {("A", T0): model_track("A", "m", 2, 2)}
        sample = [frozenset({("A", T0)}), frozenset()]
        assert track_dpe(tracks, truth, sample)[1] is None
        assert intensity_errors(tracks, truth, sample)[1] is None

    def test_missing_fix_raises(self):
        truth = {"A": truth_track("A", 1)}
        tracks = {("A", T0): model_track("A", "m", 1, 2)}
        sample = [frozenset({("A", T0)}), frozenset({("A", T0)})]
        with pytest.raises(MissingFix):
            track_dpe(tracks, truth, sample)

    def test_bias_bounded_by_mae(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 6))
            truth = {}
            tracks = {}
            for s in range(n):
                sid = f"S{s}"
                truth[sid] = truth_track(sid, 1)
                tracks[(sid, T0)] = model_track(
                    sid, "m", 1, 1,
                    mslp=float(rng.uniform(95000, 101000)),
                    wind=float(rng.uniform(0, 60)))
            sample = [frozenset(tracks)]
            err = intensity_errors(tracks, truth, sample)[0]
            assert abs(err.bias_mslp_hpa) <= err.mae_mslp_hpa + 1e-12
            assert abs(err.bias_wind_ms) <= err.mae_wind_ms + 1e-12

    def test_subset_sample_preserves_per_storm_terms(self):
        # shrinking S_l only changes which terms are averaged, never the
        # terms themselves
        truth = {"A": truth_track("A", 1, lat=10.0),
                 "B": truth_track("B", 1, lat=12.0)}
        tracks = {("A", T0): model_track("A", "m", 1, 1, lat=10.5),
                  ("B", T0): model_track("B", "m", 1, 1, lat=13.0)}
        full = track_dpe(tracks, truth, [frozenset(tracks)])[0]
        only_a = track_dpe(tracks, truth, [frozenset({("A", T0)})])[0]
        only_b = track_dpe(tracks, truth, [frozenset({("B", T0)})])[0]
        assert full == pytest.approx((only_a + only_b) / 2.0, rel=1e-15)

    def test_dpe_permutation_invariance(self):
        truth = {"A": truth_track("A", 1, lat=10.0),
                 "B": truth_track("B", 1, lat=12.0)}
        tracks = {("A", T0): model_track("A", "m", 1, 1, lat=10.5),
                  ("B", T0): model_track("B", "m", 1, 1, lat=12.5)}
        sample = [frozenset(tracks)]
        d1 = track_dpe(tracks, truth, sample)[0]
        relabeled_truth = {"B": truth["A"], "A": truth["B"]}
        # swap ids consistently on both sides
        relabeled_tracks = {("B", T0): tracks[("A", T0)],
                            ("A", T0): tracks[("B", T0)]}
        d2 = track_dpe(relabeled_tracks, relabeled_truth, sample)[0]
        assert d1 == pytest.approx(d2, rel=1e-15)
