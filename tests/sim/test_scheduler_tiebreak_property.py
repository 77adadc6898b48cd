"""Hypothesis battery: deterministic FIFO tie-breaking in the scheduler.

The engine's total event order is ``(when, priority, seq)`` -- among
events landing at the same instant with the same priority, insertion
order wins.  The scheduler (same-instant deques plus the future heap)
must realise that order exactly, through collisions, URGENT/NORMAL
mixes, nested same-instant scheduling, and lazy cancellation.  Delays
are drawn from a coarse quantised grid precisely to force many
timestamp collisions.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import NORMAL, URGENT, Environment
from repro.sim.events import Event

# A schedule: each entry seeds one event at a quantised delay.  ``spawn``
# asks the event's callback to schedule a child at a further quantised
# delay (0 = same instant); ``cancel_prev`` lazily cancels the
# previously seeded event, exercising queue skip-on-pop paths.
entries = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=12),      # delay / 0.25
        st.sampled_from([URGENT, NORMAL]),           # priority
        st.integers(min_value=0, max_value=3),       # spawn depth
        st.booleans(),                               # cancel_prev
    ),
    min_size=1, max_size=24)


def _trigger(env, when, priority):
    """A pre-triggered bare event (the wakeup idiom of the bandwidth
    layer) scheduled ``when`` from now."""
    ev = Event(env)
    ev._ok = True
    ev._value = None
    env.schedule(ev, delay=when, priority=priority)
    return ev


def _run(plan):
    env = Environment()
    fired = []

    def make_cb(tag, depth, priority):
        def cb(event):
            fired.append((tag, env.now))
            if depth > 0:
                child = _trigger(env, 0.25 * (depth % 2), priority)
                child.callbacks.append(
                    make_cb(f"{tag}.c{depth}", depth - 1, priority))
        return cb

    prev = None
    for i, (q, priority, spawn, cancel_prev) in enumerate(plan):
        ev = _trigger(env, 0.25 * q, priority)
        ev.callbacks.append(make_cb(f"e{i}", spawn, priority))
        if cancel_prev and prev is not None and prev.callbacks is not None:
            env.unschedule(prev)
        prev = ev
    env.run()
    return fired, env.processed_events


@given(plan=entries)
@settings(max_examples=120, deadline=None)
def test_firing_order_is_time_sorted(plan):
    fired, processed = _run(plan)
    assert processed == len(fired)
    times = [t for _, t in fired]
    assert times == sorted(times)


@given(plan=entries)
@settings(max_examples=60, deadline=None)
def test_same_instant_fifo_is_insertion_order(plan):
    """Among root events with equal (when, priority), firing order is
    exactly seeding order."""
    fired, _ = _run(plan)
    root = [tag for tag, _ in fired if "." not in tag]
    # Reconstruct the expected order: cancelled events never fire;
    # survivors sort by (when, priority, seed index).
    alive = {}
    prev_i = None
    for i, (q, priority, spawn, cancel_prev) in enumerate(plan):
        if cancel_prev and prev_i is not None:
            alive.pop(prev_i, None)
        alive[i] = (0.25 * q, priority)
        prev_i = i
    expected = [f"e{i}" for i, _ in
                sorted(alive.items(), key=lambda kv: (kv[1], kv[0]))]
    assert root == expected


def test_cancelled_events_never_fire_and_queue_drains():
    env = Environment()
    fired = []
    keep = _trigger(env, 1.0, NORMAL)
    keep.callbacks.append(lambda e: fired.append("keep"))
    drop = _trigger(env, 1.0, NORMAL)
    drop.callbacks.append(lambda e: fired.append("drop"))
    env.unschedule(drop)
    env.run()
    assert fired == ["keep"]
    assert env.peek() == float("inf")
