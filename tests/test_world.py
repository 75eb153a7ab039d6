import math
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import ndimage

import dsmpepc.world as world_module
from dsmpepc.cost import terminal_ttc
from dsmpepc.kinematics import Pose, RobotState
from dsmpepc.world import (
    DynamicObstacle,
    HorizonSnapshot,
    NavigationField,
    OccupancyGrid,
    TTC_HORIZON,
    World,
    _motion,
    _static_ray_arcs,
    distance_to_nearest,
    distance_to_nearest_batch,
    predict_obstacle,
    time_to_collision,
)

from dsmpepc.scenarios import builtin
from oracles import (
    brute_force_distance_field,
    fine_step_first_contact,
    fine_step_ray_contact,
    reference_navigation_field,
    reference_ray_arc,
    reference_sample_field,
    reference_time_to_collision,
)


def empty_grid(size_cells=40, resolution=0.25):
    return OccupancyGrid(np.zeros((size_cells, size_cells), dtype=bool), resolution)


def test_from_ascii_and_back():
    rows = ["####", "#..#", "####"]
    grid = OccupancyGrid.from_ascii(rows, 0.5)
    assert grid.width == 4 and grid.height == 3
    assert grid.to_ascii() == rows
    # first text row is the top: interior free cells sit at iy = 1
    assert not grid.occupied[1, 1] and not grid.occupied[1, 2]
    assert grid.occupied[0, 0] and grid.occupied[2, 0]


def test_grid_keeps_its_own_read_only_copy():
    # the distance field and has_occupied derive from the cells, so the
    # caller's array must not be able to change them afterwards
    occ = np.zeros((5, 5), dtype=bool)
    grid = OccupancyGrid(occ, 1.0)
    occ[2, 2] = True
    assert not grid.occupied[2, 2]
    assert not grid.has_occupied
    assert grid.sample_distance(2.5, 2.5) == math.inf
    with pytest.raises(ValueError):
        grid.occupied[2, 2] = True


def test_from_ascii_validation():
    with pytest.raises(ValueError):
        OccupancyGrid.from_ascii([], 0.5)
    with pytest.raises(ValueError):
        OccupancyGrid.from_ascii(["##", "#"], 0.5)
    with pytest.raises(ValueError):
        OccupancyGrid.from_ascii(["#.", "#.#"], 0.5)
    with pytest.raises(ValueError, match="'x'"):
        OccupancyGrid.from_ascii(["#x"], 0.5)
    # a non-ASCII character is named, not an encoding error
    with pytest.raises(ValueError, match="'é'"):
        OccupancyGrid.from_ascii(["#é"], 0.5)
    with pytest.raises(ValueError):
        OccupancyGrid.from_ascii(["##"], 0.0)


def test_from_ascii_matches_per_character_parse():
    rows = ["#..#.##", "...#...", "##.....", ".#.#.#.", "......#"]
    grid = OccupancyGrid.from_ascii(rows, 0.5)
    expected = np.array([[c == "#" for c in row] for row in reversed(rows)])
    assert grid.occupied.dtype == bool
    assert np.array_equal(grid.occupied, expected)


def test_zero_area_grid_rejected():
    with pytest.raises(ValueError):
        OccupancyGrid(np.zeros((0, 5), dtype=bool), 0.5)


def test_distance_field_single_center_cell():
    occupied = np.zeros((11, 11), dtype=bool)
    occupied[5, 5] = True
    grid = OccupancyGrid(occupied, 1.0)
    assert grid.distance_field[5, 5] == 0.0
    assert grid.distance_field[0, 0] == pytest.approx(math.sqrt(50.0), rel=1e-12)
    assert grid.distance_field[5, 0] == 5.0


def test_distance_field_free_grid_is_infinite():
    grid = empty_grid()
    assert np.isinf(grid.distance_field).all()
    assert grid.sample_distance(3.3, 4.4) == math.inf


def test_distance_field_matches_brute_force():
    rng = np.random.default_rng(10)
    for _ in range(5):
        occupied = rng.random((32, 32)) < 0.07
        occupied[3, 4] = True
        grid = OccupancyGrid(occupied, 0.2)
        brute = brute_force_distance_field(occupied, 0.2)
        assert np.array_equal(grid.distance_field, brute)


def _random_walls(shape, fraction, seed):
    return np.random.default_rng(seed).random(shape) < fraction


def _one_cell(shape, iy, ix):
    occupied = np.zeros(shape, dtype=bool)
    occupied[iy, ix] = True
    return occupied


# the separable transform's edge cases: one cell, one-cell-wide and one-tall
# lines (either pass has a single line or a single shift), a lone occupied
# cell far from most of the grid (lines with no occupied cell wait for the
# other pass), both orientations of a non-square grid, and a large map
EDT_CASES = {
    "1x1": np.ones((1, 1), dtype=bool),
    "1-wide": np.array([[False], [True], [False], [False], [True], [False]]),
    "1-tall": np.array([[False, False, True, False, False, False, True]]),
    "lone-cell-wide-grid": _one_cell((30, 50), 3, 41),
    "lone-cell-tall-grid": _one_cell((50, 30), 41, 3),
    "400x400": _random_walls((400, 400), 0.2, 400),
}


@pytest.mark.parametrize("name", EDT_CASES)
def test_distance_field_matches_scipy_edt(name):
    occupied = EDT_CASES[name]
    grid = OccupancyGrid(occupied, 0.1)
    assert np.array_equal(grid.distance_field,
                          ndimage.distance_transform_edt(~occupied) * 0.1)
    # the sampler gathers from the raveled field, which must not copy
    assert grid.distance_field.flags.c_contiguous


def test_distance_transform_memory_stays_linear():
    # the separable passes keep a few grid-sized arrays; a one-shot
    # (H, W, min(H, W)) broadcast would need 400 times the field's bytes
    occupied = EDT_CASES["400x400"]
    tracemalloc.start()
    try:
        grid = OccupancyGrid(occupied, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * grid.distance_field.nbytes


def test_sample_distance_matches_field_at_cell_centers():
    rng = np.random.default_rng(2)
    occupied = rng.random((20, 30)) < 0.1
    occupied[7, 9] = True
    grid = OccupancyGrid(occupied, 0.5, origin=(-2.0, 1.0))
    for iy in (0, 5, 19):
        for ix in (0, 17, 29):
            cx, cy = grid.cell_center(ix, iy)
            assert grid.sample_distance(cx, cy) == pytest.approx(
                grid.distance_field[iy, ix], rel=1e-12
            )


def test_sample_distance_batch_matches_scalar():
    rng = np.random.default_rng(5)
    occupied = rng.random((25, 25)) < 0.08
    occupied[11, 12] = True
    grid = OccupancyGrid(occupied, 0.3)
    xs = rng.uniform(-1, 9, size=300)
    ys = rng.uniform(-1, 9, size=300)
    batch = grid.sample_distance_batch(xs, ys)
    for x, y, b in zip(xs, ys, batch):
        assert grid.sample_distance(x, y) == b


@pytest.mark.parametrize("shape", [(17, 23), (1, 9), (9, 1), (1, 1)])
def test_sample_field_batch_matches_2d_indexing(shape):
    # the flat-index gather against 2-D indexing, on an arbitrary field and
    # the distance field, off the origin, at points inside and outside; two
    # fields through one stencil equal each field sampled alone
    rng = np.random.default_rng(sum(shape))
    occupied = rng.random(shape) < 0.2
    occupied[-1, 0] = True
    grid = OccupancyGrid(occupied, 0.3, origin=(-1.7, 2.4))
    xmin, ymin, xmax, ymax = grid.extent
    xs = rng.uniform(xmin - 1.0, xmax + 1.0, size=(40, 26))
    ys = rng.uniform(ymin - 1.0, ymax + 1.0, size=(40, 26))
    xs[0, :4] = [xmin, xmax, xmin, xmax]  # the box's corners
    ys[0, :4] = [ymin, ymin, ymax, ymax]
    fields = (rng.normal(size=shape), grid.distance_field)
    alone = []
    for values in fields:
        [got] = grid.sample_field_batch((values,), xs, ys)
        assert got.shape == xs.shape
        np.testing.assert_array_equal(got, reference_sample_field(grid, values, xs, ys))
        alone.append(got)
    together = grid.sample_field_batch(fields, xs, ys)
    assert len(together) == 2
    assert all((a == b).all() for a, b in zip(together, alone))


@pytest.mark.parametrize("rows", [["#...", "...."], ["....", "...."]], ids=["walled", "open"])
def test_public_samplers_reject_nan_coordinates(rows):
    # a NaN coordinate is a ValueError that names it, on a walled and an open
    # map; an infinite coordinate still clamps to the grid's border
    grid = OccupancyGrid.from_ascii(rows, 0.5)
    nav = NavigationField(grid, (1.75, 0.25))

    def pair(v):
        return np.array([0.5, v])

    for sampler, names, point in ((grid.sample_distance, "xy", float),
                                  (nav.distance, "xy", float),
                                  (grid.sample_distance_batch, ("xs", "ys"), pair),
                                  (nav.distance_batch, ("xs", "ys"), pair)):
        with pytest.raises(ValueError, match=f"^{names[0]} must not be NaN"):
            sampler(point(math.nan), point(0.5))
        with pytest.raises(ValueError, match=f"^{names[1]} must not be NaN"):
            sampler(point(0.5), point(math.nan))
        assert not np.isnan(sampler(point(math.inf), point(-math.inf))).any()


def test_sampled_field_is_lipschitz():
    rng = np.random.default_rng(8)
    occupied = rng.random((30, 30)) < 0.1
    occupied[4, 4] = True
    res = 0.2
    grid = OccupancyGrid(occupied, res)
    tol = res * math.sqrt(2.0)
    for _ in range(500):
        x0, y0 = rng.uniform(0, 6, size=2)
        dx, dy = rng.uniform(-0.5, 0.5, size=2)
        a = grid.sample_distance(x0, y0)
        b = grid.sample_distance(x0 + dx, y0 + dy)
        assert abs(a - b) <= math.hypot(dx, dy) + tol


def test_predict_obstacle_constant_velocity():
    obs = DynamicObstacle(id="o", radius=0.3, position=(0, 0), velocity=(1, 0))
    assert predict_obstacle(obs, 2.5) == (2.5, 0.0)
    assert predict_obstacle(obs, 0.0) == (0.0, 0.0)
    shifted = DynamicObstacle(id="o", radius=0.3, position=(1, 1), velocity=(0, 2),
                              epoch=10.0)
    assert predict_obstacle(shifted, 11.0) == (1.0, 3.0)


def test_predict_obstacle_linear_in_time():
    obs = DynamicObstacle(id="o", radius=0.3, position=(1, -2), velocity=(0.7, 0.4))
    rng = random.Random(0)
    for _ in range(100):
        t1, t2 = rng.uniform(0, 50), rng.uniform(0, 50)
        lam = rng.random()
        mid = predict_obstacle(obs, lam * t1 + (1 - lam) * t2)
        p1 = predict_obstacle(obs, t1)
        p2 = predict_obstacle(obs, t2)
        assert mid[0] == pytest.approx(lam * p1[0] + (1 - lam) * p2[0], abs=1e-9)
        assert mid[1] == pytest.approx(lam * p1[1] + (1 - lam) * p2[1], abs=1e-9)


def test_predict_obstacle_script():
    obs = DynamicObstacle(
        id="s", radius=0.3, waypoints=((0.0, 0.0, 0.0), (2.0, 4.0, 0.0))
    )
    assert predict_obstacle(obs, 1.0) == (2.0, 0.0)
    assert predict_obstacle(obs, -5.0) == (0.0, 0.0)
    assert predict_obstacle(obs, 99.0) == (4.0, 0.0)
    assert _motion(obs, 1.0)[2:] == (2.0, 0.0)
    assert _motion(obs, 99.0)[2:] == (0.0, 0.0)


def test_motion_boundaries():
    # one lookup gives center and velocity: a constant-velocity disk moves
    # from its epoch at all times; a script rests at its first waypoint
    # before its first time, lies on the segment [t0, t1) holding t, and
    # rests at its last waypoint from its last time on
    cv = DynamicObstacle(id="cv", radius=0.3, position=(1.0, -2.0), velocity=(0.5, 0.25),
                         epoch=2.0)
    assert _motion(cv, 0.0) == (0.0, -2.5, 0.5, 0.25)
    assert _motion(cv, 2.0) == (1.0, -2.0, 0.5, 0.25)
    assert _motion(cv, 6.0) == (3.0, -1.0, 0.5, 0.25)
    # waypoints whose interior point is not x0 + 1.0 * (x1 - x0) in floats
    script = DynamicObstacle(id="wp", radius=0.3, waypoints=(
        (1.0, 0.7, 0.0), (3.0, 0.1, 2.0), (5.0, 0.1, 0.0)))
    assert 0.7 + 1.0 * (0.1 - 0.7) != 0.1
    expected = {
        0.0: (0.7, 0.0, 0.0, 0.0),                         # before its first time
        1.0: (0.7, 0.0, (0.1 - 0.7) / 2.0, 1.0),           # at its first time
        2.0: (0.7 + 0.5 * (0.1 - 0.7), 1.0, (0.1 - 0.7) / 2.0, 1.0),  # inside
        3.0: (0.1, 2.0, 0.0, -1.0),                        # at an interior waypoint
        4.0: (0.1, 1.0, 0.0, -1.0),
        5.0: (0.1, 0.0, 0.0, 0.0),                         # at its last time
        9.0: (0.1, 0.0, 0.0, 0.0),                         # after it
    }
    for t, state in expected.items():
        assert _motion(script, t) == state
        assert predict_obstacle(script, t) == state[:2]
    # a one-waypoint script rests there at every time
    still = DynamicObstacle(id="one", radius=0.3, waypoints=((2.0, 4.0, 5.0),))
    for t in (0.0, 2.0, 7.0):
        assert _motion(still, t) == (4.0, 5.0, 0.0, 0.0)


def test_script_validation():
    with pytest.raises(ValueError):
        DynamicObstacle(id="bad", radius=0.3, waypoints=((1.0, 0, 0), (1.0, 1, 1)))
    with pytest.raises(ValueError):
        DynamicObstacle(id="bad", radius=-1.0)
    # a position or velocity that is not a pair, or a waypoint that is not a
    # (t, x, y) triple, fails at construction, naming the obstacle
    for shape in ({"waypoints": ((0.0, 1.0), (2.0, 3.0))},
                  {"waypoints": ((0.0, 1.0, 2.0, 9.0),)},
                  {"position": (1.0,)}, {"velocity": (1.0, 2.0, 3.0)}):
        with pytest.raises(ValueError, match="obstacle 'w'"):
            DynamicObstacle(id="w", radius=0.3, **shape)


def test_distance_to_nearest_lone_obstacle():
    world = World(
        grid=empty_grid(),
        obstacles=(DynamicObstacle(id="o", radius=0.5, position=(3.0, 0.0)),),
        robot_radius=0.5,
    )
    assert distance_to_nearest(world, (0.0, 0.0), 0.0) == pytest.approx(2.0, abs=1e-12)
    assert distance_to_nearest(world, (3.1, 0.0), 0.0) == 0.0


def test_distance_to_nearest_brute_force_agreement():
    rng = np.random.default_rng(14)
    occupied = rng.random((40, 40)) < 0.05
    occupied[20, 20] = True
    res = 0.25
    grid = OccupancyGrid(occupied, res)
    brute_field = brute_force_distance_field(occupied, res)
    obstacles = tuple(
        DynamicObstacle(id=f"o{i}", radius=float(rng.uniform(0.2, 0.6)),
                        position=(float(rng.uniform(0, 10)), float(rng.uniform(0, 10))),
                        velocity=(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))))
        for i in range(4)
    )
    world = World(grid=grid, obstacles=obstacles, robot_radius=0.3)
    ys, xs = np.nonzero(occupied)
    centers = np.stack([(xs + 0.5) * res, (ys + 0.5) * res], axis=1)
    for _ in range(200):
        p = (float(rng.uniform(0, 10)), float(rng.uniform(0, 10)))
        t = float(rng.uniform(0, 5))
        d_grid = np.hypot(centers[:, 0] - p[0], centers[:, 1] - p[1]).min()
        d_obs = min(
            math.hypot(p[0] - predict_obstacle(o, t)[0],
                       p[1] - predict_obstacle(o, t)[1]) - o.radius
            for o in obstacles
        )
        expected = max(0.0, min(d_grid, d_obs) - world.robot_radius)
        got = distance_to_nearest(world, p, t)
        assert got == pytest.approx(expected, abs=res)


def test_distance_batch_matches_scalar():
    rng = np.random.default_rng(3)
    occupied = rng.random((30, 30)) < 0.06
    occupied[10, 10] = True
    grid = OccupancyGrid(occupied, 0.25)
    world = World(
        grid=grid,
        obstacles=(
            DynamicObstacle(id="cv", radius=0.4, position=(2, 2), velocity=(0.3, -0.1)),
            DynamicObstacle(id="sc", radius=0.3,
                            waypoints=((0.0, 1.0, 1.0), (4.0, 5.0, 3.0))),
        ),
        robot_radius=0.35,
    )
    # enough points that math.hypot would round some disk gap a bit apart
    xs = rng.uniform(0, 7.5, size=20_000).tolist()
    ys = rng.uniform(0, 7.5, size=20_000).tolist()
    ts = rng.uniform(0, 6, size=20_000).tolist()
    batch = distance_to_nearest_batch(world, np.array(xs), np.array(ys), np.array(ts))
    scalar = [distance_to_nearest(world, (x, y), t) for x, y, t in zip(xs, ys, ts)]
    assert scalar == batch.tolist()


def test_horizon_snapshot_matches_per_time_queries():
    rng = np.random.default_rng(5)
    occupied = rng.random((24, 24)) < 0.05
    occupied[3, 20] = True
    world = World(
        grid=OccupancyGrid(occupied, 0.25),
        obstacles=(
            DynamicObstacle(id="cv", radius=0.4, position=(2, 2), velocity=(0.3, -0.1),
                            epoch=0.7),
            DynamicObstacle(id="sc", radius=0.3,
                            waypoints=((0.5, 1.0, 1.0), (2.1, 5.0, 3.0), (4.0, 2.0, 2.0))),
        ),
        robot_radius=0.35,
    )
    ts = [0.3 + 0.2 * i for i in range(26)]
    xs = rng.uniform(0, 6, size=26)
    ys = rng.uniform(0, 6, size=26)
    stack_x = rng.uniform(0, 6, size=(3, 26))
    stack_y = rng.uniform(0, 6, size=(3, 26))
    for w in (world, replace(world, obstacles=())):
        snapshot = HorizonSnapshot(w, ts)
        # a batch of rollouts broadcasts over the leading axis, row for row
        stacked = snapshot.clearance(stack_x, stack_y,
                                     w.grid.sample_distance_batch(stack_x, stack_y))
        assert stacked.shape == (3, 26)
        for row_x, row_y, row in zip(stack_x, stack_y, stacked):
            d_grid = w.grid.sample_distance_batch(row_x, row_y)
            assert snapshot.clearance(row_x, row_y, d_grid).tolist() == row.tolist()
        d_grid = w.grid.sample_distance_batch(xs, ys)
        for x, y, t, d in zip(xs, ys, ts, snapshot.clearance(xs, ys, d_grid)):
            assert d == distance_to_nearest(w, (x, y), t)
        assert snapshot.tracks.shape == (len(w.obstacles), len(ts), 4)
        # the array holds exactly the predicted states
        for obs, track in zip(w.obstacles, snapshot.tracks.tolist()):
            for state, t in zip(track, ts, strict=True):
                assert tuple(state) == _motion(obs, t)


def _assert_arcs_match_reference(grid, rays, robot_radius):
    x, y, ux, uy, max_arc = map(np.array, zip(*rays))
    # all rays march in one lockstep batch, each as it would alone
    arcs = _static_ray_arcs(grid, x, y, ux, uy, robot_radius, max_arc,
                            grid.sample_distance_batch(x, y))
    for ray, arc in zip(rays, arcs.tolist()):
        expected = reference_ray_arc(grid, *ray[:4], robot_radius, ray[4])
        assert arc == (math.inf if expected is None else expected)


@pytest.mark.parametrize("shape", [(30, 30), (1, 30), (30, 1), (2, 2)])
def test_static_ray_arc_matches_sampled_march(shape):
    rng = random.Random(sum(shape))
    occupied = np.zeros(shape, dtype=bool)
    occupied.flat[rng.randrange(occupied.size)] = True
    grid = OccupancyGrid(occupied, 0.2, origin=(-1.0, 0.5))
    xmin, ymin, xmax, ymax = grid.extent
    rays = []
    for _ in range(200):
        x = rng.uniform(xmin - 1.0, xmax + 1.0)
        y = rng.uniform(ymin - 1.0, ymax + 1.0)
        ang = rng.choice([0.0, math.pi / 2, rng.uniform(-math.pi, math.pi)])
        rays.append((x, y, math.cos(ang), math.sin(ang),
                     rng.choice([math.inf, rng.uniform(0.0, 8.0)])))
    for rr in (0.05, rng.uniform(0.05, 0.4), rng.uniform(0.05, 0.4), 0.4):
        _assert_arcs_match_reference(grid, rays, rr)


def test_static_ray_arc_matches_sampled_march_of_mixed_lengths(monkeypatch):
    # Marches of one sample next to marches of dozens: each lockstep
    # iteration samples exactly the rays still marching, except the first,
    # which samples only the rays that enter the box from outside (a ray
    # that starts inside takes the given distance at its start).
    rng = random.Random(31)
    occupied = np.random.default_rng(31).random((40, 60)) < 0.01
    grid = OccupancyGrid(occupied, 0.2, origin=(2.0, -3.0))
    xmin, ymin, xmax, ymax = grid.extent
    rays = []
    for _ in range(300):
        x = rng.uniform(xmin - 2.0, xmax + 2.0)
        y = rng.uniform(ymin - 2.0, ymax + 2.0)
        # axis-parallel rays, from outside the box too, and oblique ones
        ang = rng.choice([0.0, math.pi / 2, math.pi, -math.pi / 2,
                          rng.uniform(-math.pi, math.pi)])
        rays.append((x, y, math.cos(ang), math.sin(ang),
                     rng.choice([math.inf, 10 ** rng.uniform(-1.5, 1.5)])))
    inside = [xmin <= x <= xmax and ymin <= y <= ymax for x, y, *_ in rays]
    assert 0 < sum(inside) < len(rays)
    sampled = []

    def counted(self, fields, xs, ys, _real=OccupancyGrid.sample_field_batch):
        sampled.append(xs.size)
        return _real(self, fields, xs, ys)

    def march_sizes(rays, rr):
        """Points sampled per call of one lockstep march of `rays`."""
        x, y, ux, uy, max_arc = map(np.array, zip(*rays))
        d_start = grid.sample_distance_batch(x, y)
        sampled.clear()
        _static_ray_arcs(grid, x, y, ux, uy, rr, max_arc, d_start)
        return list(sampled)

    monkeypatch.setattr(OccupancyGrid, "sample_field_batch", counted)
    for rr in (0.1, 0.25):
        sizes = march_sizes(rays, rr)
        # a ray's iterations: its sampling calls, and its start if inside
        calls = [len(march_sizes([ray], rr)) for ray in rays]
        steps = [k + start for k, start in zip(calls, inside)]
        marched = [k for k in steps if k]
        assert max(marched) >= 10 * min(marched)
        entering = sum(k > 0 and not start for k, start in zip(calls, inside))
        live = [sum(k > i for k in steps) for i in range(1, max(steps))]
        assert entering > 0
        assert sizes == [entering] + live
        _assert_arcs_match_reference(grid, rays, rr)


def _walled_grid(rng):
    """A walled hall with rectangular pillars, in the benchmark's resolutions."""
    w, h = rng.randint(40, 64), rng.randint(28, 44)
    occupied = np.zeros((h, w), dtype=bool)
    occupied[[0, -1], :] = True
    occupied[:, [0, -1]] = True
    for _ in range(rng.randint(3, 6)):
        pw, ph = rng.randint(2, 7), rng.randint(2, 7)
        px, py = rng.randint(4, w - 4 - pw), rng.randint(4, h - 4 - ph)
        occupied[py:py + ph, px:px + pw] = True
    return OccupancyGrid(occupied, rng.choice((0.2, 0.25)),
                         origin=(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)))


def _rays(grid, rng, count, clear_of=None):
    """Seeded rays: starts in and around the grid box (only where the field
    exceeds `clear_of`, if given), a quarter of them axis-parallel."""
    xmin, ymin, xmax, ymax = grid.extent
    rays = []
    while len(rays) < count:
        x, y = rng.uniform(xmin - 1.0, xmax + 1.0), rng.uniform(ymin - 1.0, ymax + 1.0)
        if clear_of is not None and grid.sample_distance(x, y) <= clear_of:
            continue
        if rng.random() < 0.25:
            ang = rng.choice([0.0, math.pi / 2, math.pi, -math.pi / 2])
        else:
            ang = rng.uniform(-math.pi, math.pi)
        rays.append((x, y, math.cos(ang), math.sin(ang)))
    return tuple(map(np.array, zip(*rays)))


def test_static_ray_arc_does_not_depend_on_its_end():
    # The arc at any max_arc is the unbounded arc where that lies within
    # max_arc, else +inf: a hit backed off to within the end is found even
    # when its sample lies past the end. So a TTC query that an added
    # obstacle shortens keeps its grid hit or loses it, never moves it later.
    rng = random.Random(17)
    nprng = np.random.default_rng(17)
    checked = 0
    for _ in range(8):
        grid = _walled_grid(rng)
        for rr in (0.25, 0.35, 0.5):
            x, y, ux, uy = _rays(grid, rng, 300)
            d_start = grid.sample_distance_batch(x, y)
            unbounded = _static_ray_arcs(grid, x, y, ux, uy, rr, np.full(x.size, math.inf),
                                         d_start)
            hits = np.isfinite(unbounded)
            assert hits.mean() > 0.5
            # ends anywhere, and ends within a cell either side of each hit
            near = unbounded + grid.resolution * nprng.uniform(-1.0, 1.0, x.size)
            for max_arc in (nprng.uniform(0.0, 15.0, x.size),
                            np.where(hits, near, nprng.uniform(0.0, 15.0, x.size))):
                arcs = _static_ray_arcs(grid, x, y, ux, uy, rr, max_arc, d_start)
                want = np.where(unbounded <= max_arc, unbounded, math.inf)
                assert np.array_equal(arcs, want)
                checked += int((hits & (unbounded <= max_arc)).sum())
    assert checked > 5000


def test_static_ray_arc_bound_against_a_dense_march():
    # Against a march of fixed resolution/32 steps from the same entry over
    # the same sampled field, the arc is never more than 0.1 cell early. It
    # is at most one cell late, unless the dense march's contact zone is
    # shorter than a cell (the ray grazes it, and the march may step over
    # it) or starts within a cell of the ray's end.
    rng = random.Random(23)
    counts = dict.fromkeys(("bounded", "graze", "near end", "no contact"), 0)
    worst_early = worst_late = -math.inf
    for _ in range(6):
        grid = _walled_grid(rng)
        res = grid.resolution
        for rr in (0.3, 0.35, 0.45):
            x, y, ux, uy = _rays(grid, rng, 120, clear_of=rr)
            max_arc = np.array([rng.choice([math.inf, rng.uniform(0.5, 12.0)])
                                for _ in x])
            arcs = _static_ray_arcs(grid, x, y, ux, uy, rr, max_arc,
                                    grid.sample_distance_batch(x, y))
            for i, arc in enumerate(arcs.tolist()):
                ref, zone, exit_arc = fine_step_ray_contact(
                    grid, x[i], y[i], ux[i], uy[i], rr, res / 32)
                if math.isfinite(arc):
                    assert ref is not None
                    worst_early = max(worst_early, (ref - arc) / res)
                end = min(exit_arc or 0.0, max_arc[i])
                if ref is None or ref > end:
                    counts["no contact"] += 1
                elif zone < res:
                    counts["graze"] += 1
                elif ref > end - res:
                    counts["near end"] += 1
                else:
                    counts["bounded"] += 1
                    worst_late = max(worst_late, (arc - ref) / res)
    print(f"rays per case: {counts}; worst early {worst_early:.3f} cell, "
          f"worst late {worst_late:.3f} cell")
    assert worst_early <= 0.1
    assert worst_late <= 1.0
    assert counts["bounded"] > 10 * (counts["graze"] + counts["near end"])


def test_ttc_head_on_static_disk():
    world = World(
        grid=empty_grid(),
        obstacles=(DynamicObstacle(id="o", radius=0.5, position=(5.0, 0.0)),),
        robot_radius=0.5,
    )
    ttc = time_to_collision(world, (0.0, 0.0), (1.0, 0.0), 0.0)
    assert ttc == pytest.approx(4.0, rel=1e-12)


def test_ttc_moving_away_is_infinite():
    world = World(
        grid=empty_grid(),
        obstacles=(DynamicObstacle(id="o", radius=0.5, position=(5.0, 0.0)),),
        robot_radius=0.5,
    )
    assert time_to_collision(world, (0.0, 0.0), (-1.0, 0.0), 0.0) == math.inf
    assert time_to_collision(world, (0.0, 0.0), (0.0, 0.0), 0.0) == math.inf


def test_ttc_rejects_nonfinite_input():
    # +inf means "never collides": a NaN or infinite query must not read so
    world = World(
        grid=OccupancyGrid.from_ascii(["....", "..#.", "...."], 0.5),
        obstacles=(DynamicObstacle(id="o", radius=0.25, position=(1.0, 0.75)),),
        robot_radius=0.1,
    )
    for position, velocity, t0 in (((1.0, 0.75), (math.nan, 0.0), 0.0),
                                   ((0.25, 0.25), (1.0, math.inf), 0.0),
                                   ((0.25, 0.25), (1.0, 0.0), math.nan),
                                   ((math.nan, 0.25), (1.0, 0.0), 0.0),
                                   ((0.25, -math.inf), (1.0, 0.0), 0.0)):
        with pytest.raises(ValueError):
            time_to_collision(world, position, velocity, t0)
    terminal = RobotState(pose=Pose(0.25, 0.25, math.nan))
    with pytest.raises(ValueError):
        terminal_ttc(terminal, world, 0.0, 1.0)


def test_ttc_zero_iff_contact():
    world = World(
        grid=empty_grid(),
        obstacles=(DynamicObstacle(id="o", radius=0.5, position=(1.0, 0.0)),),
        robot_radius=0.5,
    )
    # inside the inflated disk: contact regardless of velocity
    assert time_to_collision(world, (0.5, 0.0), (-1.0, 0.0), 0.0) == 0.0
    # clear of contact implies strictly positive ttc
    rng = random.Random(4)
    for _ in range(200):
        p = (rng.uniform(-4, 4), rng.uniform(-4, 4))
        v = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        d = distance_to_nearest(world, p, 0.0)
        ttc = time_to_collision(world, p, v, 0.0)
        if d == 0.0:
            assert ttc == 0.0
        else:
            assert ttc > 0.0


def test_ttc_marches_only_points_clear_of_contact(monkeypatch):
    # a point in contact has TTC 0 whatever lies ahead, so its ray is not marched
    rows = ["." * 30] * 29 + ["#" * 30]
    world = World(grid=OccupancyGrid.from_ascii(rows, 0.2), robot_radius=0.3,
                  obstacles=(DynamicObstacle(id="o", radius=0.5, position=(4.0, 3.0)),))
    snapshot = HorizonSnapshot(world, [0.0])
    x, y, vx, vy = np.random.default_rng(5).uniform(
        [0.0, 0.0, -1.0, -1.0], [6.0, 6.0, 1.0, 1.0], (200, 4)).T
    d_grid = world.grid.sample_distance_batch(x, y)
    d0 = snapshot.clearance(x, y, d_grid)
    contact = d0 <= 0.0
    assert 0 < contact.sum() < contact.size
    marched = []

    def counted(grid, mx, my, *rest, _real=world_module._static_ray_arcs):
        marched.extend(zip(mx.tolist(), my.tolist()))
        return _real(grid, mx, my, *rest)

    monkeypatch.setattr(world_module, "_static_ray_arcs", counted)
    ttc = snapshot.ttc(x, y, vx, vy, np.zeros(x.size, dtype=int), d0, d_grid)
    assert sorted(marched) == sorted(zip(x[~contact].tolist(), y[~contact].tolist()))
    assert (ttc[contact] == 0.0).all() and (ttc[~contact] > 0.0).all()


def test_ttc_static_wall_and_speed_scaling():
    # last ASCII row is the map bottom: wall cell centers at y = 0.1
    rows = ["." * 30] * 29 + ["#" * 30]
    grid = OccupancyGrid.from_ascii(rows, 0.2)
    world = World(grid=grid, obstacles=(), robot_radius=0.3)
    ttc1 = time_to_collision(world, (3.0, 4.1), (0.0, -1.0), 0.0)
    assert ttc1 == pytest.approx(4.0 - 0.3, abs=grid.resolution)
    ttc2 = time_to_collision(world, (3.0, 4.1), (0.0, -2.0), 0.0)
    assert ttc2 == pytest.approx(ttc1 / 2.0, rel=1e-9)
    # moving parallel to the wall never hits
    assert time_to_collision(world, (3.0, 4.1), (1.0, 0.0), 0.0) == math.inf
    # from above the grid box: the march samples its entry point first
    outside = time_to_collision(world, (3.0, 8.1), (0.0, -1.0), 0.0)
    assert outside == pytest.approx(ttc1 + 4.0, abs=1e-9)
    assert outside == pytest.approx(
        reference_time_to_collision(world, (3.0, 8.1), (0.0, -1.0), 0.0), abs=1e-9)


def test_ttc_beyond_horizon_is_infinite():
    world = World(
        grid=empty_grid(),
        obstacles=(DynamicObstacle(id="o", radius=0.5, position=(500.0, 0.0)),),
        robot_radius=0.5,
    )
    assert time_to_collision(world, (0.0, 0.0), (1.0, 0.0), 0.0) == math.inf
    near = World(
        grid=empty_grid(),
        obstacles=(DynamicObstacle(id="o", radius=0.5, position=(50.0, 0.0)),),
        robot_radius=0.5,
    )
    assert time_to_collision(near, (0.0, 0.0), (1.0, 0.0), 0.0) == pytest.approx(
        49.0, rel=1e-9
    )
    assert 49.0 < TTC_HORIZON


def random_ttc_pair(rng):
    """Robot/obstacle pair biased so contacts are common: the obstacle sits
    near the robot's forward ray."""
    speed = rng.uniform(0.3, 1.2)
    ang = rng.uniform(-math.pi, math.pi)
    v = (speed * math.cos(ang), speed * math.sin(ang))
    dist = rng.uniform(1.5, 6.0)
    lateral = rng.uniform(-1.0, 1.0)
    ux, uy = math.cos(ang), math.sin(ang)
    obs = DynamicObstacle(
        id="o",
        radius=rng.uniform(0.2, 0.6),
        position=(ux * dist - uy * lateral, uy * dist + ux * lateral),
        velocity=(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6)),
    )
    return v, obs


def test_ttc_analytic_vs_fine_simulation_sample():
    # spot check (1000-pair sweep in acceptance)
    rng = random.Random(2)
    world_radius = 0.4
    checked = 0
    for _ in range(100):
        v, obs = random_ttc_pair(rng)
        world = World(grid=empty_grid(), obstacles=(obs,), robot_radius=world_radius)
        if distance_to_nearest(world, (0.0, 0.0), 0.0) == 0.0:
            continue
        ttc = time_to_collision(world, (0.0, 0.0), v, 0.0)
        sim = fine_step_first_contact(
            (0.0, 0.0), v, obs.position, obs.velocity, world_radius + obs.radius
        )
        if math.isinf(ttc):
            assert sim is None or sim > 29.0
        else:
            checked += 1
            assert sim is not None
            assert abs(ttc - sim) <= 2e-3
    assert checked > 30


def test_navigation_field_euclidean_fallback():
    nav = NavigationField(empty_grid(), (3.0, 4.0))
    assert nav.distance(0.0, 0.0) == pytest.approx(5.0, rel=1e-12)
    assert nav.distance(3.0, 4.0) == 0.0


def test_navigation_field_routes_around_walls():
    rows = [
        "########",
        "#......#",
        "#......#",
        "######.#",
        "#......#",
        "#......#",
        "########",
    ]
    grid = OccupancyGrid.from_ascii(rows, 0.5)
    goal = (1.25, 0.75)   # below the dividing wall
    probe = (1.25, 2.75)  # above it; the only gap is on the far right
    nav = NavigationField(grid, goal)
    euclid = math.hypot(probe[0] - goal[0], probe[1] - goal[1])
    assert nav.distance(*probe) > euclid + 1.0
    assert nav.distance(*goal) < 0.3


def test_navigation_goal_in_wall_rejected():
    rows = ["###", "#.#", "###"]
    grid = OccupancyGrid.from_ascii(rows, 1.0)
    with pytest.raises(ValueError):
        NavigationField(grid, (0.5, 0.5))


def test_navigation_field_batch_matches_scalar():
    rng = np.random.default_rng(1)
    # a 1-tall and a 1-wide grid sample their one cell row or column twice;
    # an open grid's field is the Euclidean distance, where math.hypot and
    # np.hypot differ in the last bit on about 0.6 % of points, so it takes
    # many points
    for rows, n in ((["......", "..##..", "..##..", "......"], 100), (["#....."], 100),
                    (["#", ".", ".", "."], 100), (["......"] * 4, 2000)):
        grid = OccupancyGrid.from_ascii(rows, 0.5)
        xmin, ymin, xmax, ymax = grid.extent
        nav = NavigationField(grid, (xmax - 0.25, ymin + 0.25))
        # includes points outside the grid, which clamp to its border
        xs = rng.uniform(xmin - 0.5, xmax + 0.5, size=n)
        ys = rng.uniform(ymin - 0.5, ymax + 0.5, size=n)
        batch = nav.distance_batch(xs, ys)
        for x, y, b in zip(xs, ys, batch):
            assert nav.distance(x, y) == b


def _free_cell_centers(grid, cells):
    return [grid.cell_center(ix, iy) for ix, iy in cells if not grid.occupied[iy, ix]]


def test_navigation_field_matches_reference_dijkstra():
    cases = []
    for name in ("narrow_corridor", "t_corridor", "pedestrian_hall"):
        config = builtin(name)
        cases += [(config.grid, (a.goal.x, a.goal.y)) for a in config.agents]
    # the right-hand pocket is walled off: its cells get the ceiling
    pocket = OccupancyGrid.from_ascii(
        ["#########", "#....#..#", "#.##.#..#", "#....####", "#........"], 0.3, (1.0, -2.0))
    cases.append((pocket, pocket.cell_center(1, 1)))
    # free cells that touch only at a corner, between two occupied cells
    corner = OccupancyGrid.from_ascii([".#.", "#.#", "..#"], 0.5)
    cases += [(corner, corner.cell_center(0, 2)), (corner, corner.cell_center(2, 2))]
    for rows in (["#", ".", ".", "#", "."], ["..#...#."]):
        thin = OccupancyGrid.from_ascii(rows, 0.5)
        cases += [(thin, c) for c in _free_cell_centers(
            thin, np.ndindex(thin.width, thin.height))]
    # goals on every border of an irregular map
    rim = OccupancyGrid.from_ascii(["..#..", ".#...", "...#.", "#...."], 0.25, (-1.0, 2.0))
    w, h = rim.width, rim.height
    border = ({(ix, iy) for ix in range(w) for iy in (0, h - 1)}
              | {(ix, iy) for ix in (0, w - 1) for iy in range(h)})
    cases += [(rim, c) for c in _free_cell_centers(rim, sorted(border))]
    for grid, goal in cases:
        assert np.array_equal(
            NavigationField(grid, goal).values, reference_navigation_field(grid, goal))
    # the corner cut is a move: one diagonal step joins the two free corners
    nav = NavigationField(corner, corner.cell_center(0, 2))
    assert nav.values[1, 1] == math.sqrt(2.0) * 0.5
    assert nav.values[2, 2] == 2 * math.sqrt(2.0) * 0.5
    # the pocket is unreachable and lies at the ceiling, above every reached cell
    nav = NavigationField(pocket, pocket.cell_center(1, 1))
    reached = nav.values[1:4, 1:5][~pocket.occupied[1:4, 1:5]]
    assert nav.values[3, 6] == nav.values[0, 0] > reached.max()


def test_navigation_field_matches_reference_dijkstra_on_edge_cases():
    cases = []
    for rows in (["#", ".", "."], [".", "#", ".", ".", "."], ["..#.."], ["#......"]):
        line = OccupancyGrid.from_ascii(rows, 0.5)
        cases += [(line, c) for c in _free_cell_centers(
            line, np.ndindex(line.width, line.height))]
    for name in ("lone-cell-wide-grid", "lone-cell-tall-grid"):
        lone = OccupancyGrid(EDT_CASES[name], 0.2, (-3.0, 1.0))
        cases += [(lone, lone.cell_center(0, 0)), (lone, lone.cell_center(4, 25))]
    big = OccupancyGrid(EDT_CASES["400x400"], 0.1)
    iy, ix = np.argwhere(~big.occupied)[80_000]  # a free cell mid-map
    cases.append((big, big.cell_center(ix, iy)))
    for grid, goal in cases:
        assert np.array_equal(
            NavigationField(grid, goal).values, reference_navigation_field(grid, goal))


def test_navigation_field_corrects_a_cells_first_label():
    # The four diagonal moves up and round the wall reach cell (4, 2) first,
    # at 4 sqrt(2); the five moves along the bottom row and up the right
    # edge are shorter, so the cell's first label is not its last.
    maze = OccupancyGrid.from_ascii([".##..", ".#.#.", "#..#.", "....#"], 1.0)
    goal = maze.cell_center(0, 0)
    nav = NavigationField(maze, goal)
    diagonal = math.sqrt(2.0)
    assert nav.values[2, 4] == 1.0 + 1.0 + 1.0 + diagonal + 1.0
    assert nav.values[2, 4] < diagonal + diagonal + diagonal + diagonal
    assert np.array_equal(nav.values, reference_navigation_field(maze, goal))


@pytest.mark.parametrize("goal", [(math.nan, 0.25), (0.25, math.inf), (-math.inf, 0.0)])
@pytest.mark.parametrize("rows", [["#...", "...."], ["....", "...."]])
def test_navigation_goal_must_be_finite(rows, goal):
    with pytest.raises(ValueError, match="goal"):
        NavigationField(OccupancyGrid.from_ascii(rows, 0.5), goal)


def test_navigation_goal_must_lie_on_a_walled_grid():
    walled = OccupancyGrid.from_ascii(["#...", "...."], 0.5)
    for goal in ((50.0, 0.25), (1.75, -0.01), (-1e-9, 0.75), (2.0 + 1e-9, 0.5)):
        with pytest.raises(ValueError, match="goal"):
            NavigationField(walled, goal)
    # the extent's edges are on the grid
    assert NavigationField(walled, (2.0, 0.0)).distance(2.0, 0.0) < walled.resolution
    # an open grid measures straight to any finite goal
    open_grid = OccupancyGrid.from_ascii(["....", "...."], 0.5)
    assert NavigationField(open_grid, (50.0, 0.25)).distance(1.75, 0.25) == 48.25


def test_ttc_matches_scalar_reference():
    # the batched TTC against one-obstacle-at-a-time queries and a scalar
    # march, in a walled hall with constant-velocity and scripted disks
    rows = ["#" * 40] + ["#" + "." * 38 + "#"] * 8 + ["#" + "." * 15 + "#" * 6
                                                      + "." * 17 + "#"] * 3
    rows += ["#" + "." * 38 + "#"] * 8 + ["#" * 40]
    grid = OccupancyGrid.from_ascii(rows, 0.25)
    world = World(
        grid=grid,
        obstacles=(
            DynamicObstacle(id="cv", radius=0.3, position=(3.0, 2.0), velocity=(0.4, -0.2),
                            epoch=0.5),
            DynamicObstacle(id="wp", radius=0.25,
                            waypoints=((0.0, 8.0, 1.0), (3.0, 5.0, 4.0), (6.0, 2.0, 4.0))),
        ),
        robot_radius=0.35,
    )
    rng = random.Random(12)
    checked = 0
    for _ in range(400):
        p = (rng.uniform(0.0, 10.0), rng.uniform(0.0, 5.0))
        v = rng.choice([(0.0, 0.0), (rng.uniform(-1, 1), rng.uniform(-1, 1))])
        t = rng.uniform(0.0, 7.0)
        expected = reference_time_to_collision(world, p, v, t)
        # numpy and math may round the speed's hypot an ulp apart
        assert math.isclose(time_to_collision(world, p, v, t), expected, rel_tol=1e-12)
        checked += math.isfinite(expected) and expected > 0.0
    assert checked >= 100
