import math
import random
from dataclasses import replace

import numpy as np
import pytest

from dsmpepc.world import (
    DynamicObstacle,
    HorizonSnapshot,
    NavigationField,
    OccupancyGrid,
    TTC_HORIZON,
    World,
    _static_ray_arc,
    distance_to_nearest,
    distance_to_nearest_batch,
    obstacle_states,
    obstacle_velocity,
    predict_obstacle,
    time_to_collision,
)

from oracles import brute_force_distance_field, fine_step_first_contact


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


def test_from_ascii_validation():
    with pytest.raises(ValueError):
        OccupancyGrid.from_ascii([], 0.5)
    with pytest.raises(ValueError):
        OccupancyGrid.from_ascii(["##", "#"], 0.5)
    with pytest.raises(ValueError):
        OccupancyGrid.from_ascii(["#x"], 0.5)
    with pytest.raises(ValueError):
        OccupancyGrid.from_ascii(["##"], 0.0)


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
    assert obstacle_velocity(obs, 1.0) == (2.0, 0.0)
    assert obstacle_velocity(obs, 99.0) == (0.0, 0.0)


def test_script_validation():
    with pytest.raises(ValueError):
        DynamicObstacle(id="bad", radius=0.3, waypoints=((1.0, 0, 0), (1.0, 1, 1)))
    with pytest.raises(ValueError):
        DynamicObstacle(id="bad", radius=-1.0)


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
    xs = rng.uniform(0, 7.5, size=150)
    ys = rng.uniform(0, 7.5, size=150)
    ts = rng.uniform(0, 6, size=150)
    batch = distance_to_nearest_batch(world, xs, ys, ts)
    for x, y, t, b in zip(xs, ys, ts, batch):
        assert distance_to_nearest(world, (x, y), t) == pytest.approx(b, abs=1e-12)


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
    for w in (world, replace(world, obstacles=())):
        snapshot = HorizonSnapshot(w, ts)
        assert (snapshot.clearance(xs, ys).tolist()
                == distance_to_nearest_batch(w, xs, ys, np.array(ts)).tolist())
        assert len(snapshot.tracks) == len(w.obstacles)
        for t, states in zip(ts, snapshot.obstacles):
            assert states == obstacle_states(w, t)
            for obs, (ox, oy, ovx, ovy, radius) in zip(w.obstacles, states):
                assert (ox, oy) == predict_obstacle(obs, t)
                assert (ovx, ovy) == obstacle_velocity(obs, t)
                assert radius == obs.radius
        # the sweep's arrays hold exactly the predicted states
        for obs, (radius, oxs, oys, ovxs, ovys) in zip(w.obstacles, snapshot.tracks):
            assert radius == obs.radius
            for k, t in enumerate(ts):
                assert (oxs[k], oys[k]) == predict_obstacle(obs, t)
                assert (ovxs[k], ovys[k]) == obstacle_velocity(obs, t)


def _reference_arc(grid, x, y, ux, uy, robot_radius, max_arc):
    """The grid march written against OccupancyGrid.sample_distance."""
    xmin, ymin, xmax, ymax = grid.extent
    s, s_end = 0.0, math.inf
    for p, u, lo, hi in ((x, ux, xmin, xmax), (y, uy, ymin, ymax)):
        if abs(u) < 1e-15:
            if p < lo or p > hi:
                return None
        else:
            ta, tb = sorted(((lo - p) / u, (hi - p) / u))
            s, s_end = max(s, ta), min(s_end, tb)
    if s_end < s:
        return None
    s_end = min(s_end, max_arc)
    while s <= s_end:
        gap = grid.sample_distance(x + ux * s, y + uy * s) - robot_radius
        if gap <= 0.0:
            return s
        s += max(gap, 0.5 * grid.resolution)
    return None


@pytest.mark.parametrize("shape", [(30, 30), (1, 30), (30, 1), (2, 2)])
def test_static_ray_arc_matches_sampled_march(shape):
    rng = random.Random(sum(shape))
    occupied = np.zeros(shape, dtype=bool)
    occupied.flat[rng.randrange(occupied.size)] = True
    grid = OccupancyGrid(occupied, 0.2, origin=(-1.0, 0.5))
    xmin, ymin, xmax, ymax = grid.extent
    for _ in range(200):
        x = rng.uniform(xmin - 1.0, xmax + 1.0)
        y = rng.uniform(ymin - 1.0, ymax + 1.0)
        ang = rng.choice([0.0, math.pi / 2, rng.uniform(-math.pi, math.pi)])
        ux, uy = math.cos(ang), math.sin(ang)
        rr = rng.uniform(0.05, 0.4)
        max_arc = rng.choice([math.inf, rng.uniform(0.0, 8.0)])
        assert (_static_ray_arc(grid, x, y, ux, uy, rr, max_arc)
                == _reference_arc(grid, x, y, ux, uy, rr, max_arc))


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
    rows = ["......", "..##..", "..##..", "......"]
    grid = OccupancyGrid.from_ascii(rows, 0.5)
    nav = NavigationField(grid, (0.5, 0.5))
    rng = np.random.default_rng(1)
    xs = rng.uniform(0, 3, size=100)
    ys = rng.uniform(0, 2, size=100)
    batch = nav.distance_batch(xs, ys)
    for x, y, b in zip(xs, ys, batch):
        assert nav.distance(x, y) == pytest.approx(b, abs=1e-12)
