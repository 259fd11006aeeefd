"""Correctness gate: a run that fails it reports no numbers.

`check_simulation` applies acceptance criterion 7 to a simulation result.
`check_store` rebuilds, independently of `MatchIndex`, what the server must
have stored and which alerts every infected report must have returned, and
compares that with what the run saw.  The expected alerts follow
`scan_match`'s rule (every stored entry within Hamming distance tau), minus
the reporter's own entries and minus (user, encoding) pairs already alerted.
The scan is vectorised with numpy; a sample of queries is cross-checked
against `scan_match` itself on every run.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from tracecloak import matcher
from tracecloak.tracing import INFECTED


class GateError(Exception):
    def __init__(self, errors: list[str]):
        super().__init__(f"{len(errors)} gate failure(s): {errors[:3]}")
        self.errors = errors


def check_simulation(result, infections) -> list[str]:
    """Criterion 7: alerted users are exactly the contacts, and every
    recovered (epoch, cell) is where both the recipient and an infected
    agent were at that epoch."""
    users = list(result.trajectories)
    row = {u: i for i, u in enumerate(users)}
    walks = np.array([result.trajectories[u] for u in users])
    contacts = np.zeros(len(users), dtype=bool)
    for user, epoch in infections:
        own = walks[row[user], : epoch + 1]
        met = (walks[:, : epoch + 1] == own).any(axis=1)
        met[row[user]] = False
        contacts |= met
    expected = {users[i] for i in np.flatnonzero(contacts)}
    errors = []
    if result.contacts != expected:
        errors.append(
            f"simulator ground truth differs from the gate's: "
            f"{sorted(result.contacts ^ expected)[:5]}"
        )
    alerted = result.alerted_users()
    if alerted != expected:
        errors.append(
            f"missed contacts {sorted(expected - alerted)[:5]}, "
            f"false alerts {sorted(alerted - expected)[:5]}"
        )
    for user, t, cell, _ in result.recovered:
        if walks[row[user], t] != cell:
            errors.append(f"{user} recovered ({t}, {cell}) but was elsewhere")
        if not any(
            u != user and t <= epoch and walks[row[u], t] == cell
            for u, epoch in infections
        ):
            errors.append(f"{user} recovered ({t}, {cell}): no infected agent there")
    if not expected:
        errors.append("no contacts: the recall path was not exercised")
    return errors


def expected_alerts(preload, processed, tau):
    """Replay `processed` [(msg, alerts or None)] against `preload`.

    Returns (store, expected, raw): the (user, encoding) pairs the store must
    hold, in order; for each processed report the expected alerts (None
    for uninfected or failed reports); and for each infected report the
    store ids within tau, before the self and dedupe filters.  A failed
    report is assumed to have had no effect.
    """
    added = [m for m, alerts in processed if alerts is not None and m.tag != INFECTED]
    store = list(preload) + [(m.user_id, m.encoding) for m in added]
    vectors = np.array([e for _, e in store])
    vectors = vectors.astype(np.min_scalar_type(vectors.max()))  # less to scan
    size = len(preload)
    alerted: set[tuple[str, tuple[int, ...]]] = set()
    expected, raw = [], {}
    for j, (msg, alerts) in enumerate(processed):
        if alerts is None or msg.tag != INFECTED:
            size += alerts is not None
            expected.append(None)
            continue
        q = np.array(msg.encoding, dtype=vectors.dtype)
        ids = np.flatnonzero(np.count_nonzero(vectors[:size] != q, axis=1) <= tau)
        raw[j] = (size, ids.tolist())
        out = []
        for i in ids.tolist():
            key = store[i]
            if key[0] == msg.user_id or key in alerted:
                continue
            alerted.add(key)
            out.append(key)
        expected.append(out)
    return store, expected, raw


def compare_alerts(processed, expected) -> list[str]:
    errors = []
    for j, ((msg, alerts), want) in enumerate(zip(processed, expected)):
        if want is None:
            continue
        got = Counter((a.user_id, a.encoding) for a in alerts)
        want = Counter(want)
        if got != want:
            errors.append(
                f"report {j} ({msg.user_id}): dropped {len(want - got)} alert(s), "
                f"extra {len(got - want)} alert(s)"
            )
    return errors


def check_store(preload, processed, server, tau) -> list[str]:
    store, expected, raw = expected_alerts(preload, processed, tau)
    errors = []
    entries = server.index.entries
    if [(e.user_id, e.encoding) for e in entries] != store:
        errors.append(
            f"server store ({len(entries)} entries) differs from the reports "
            f"accepted ({len(store)})"
        )
    accepted = sum(m.tag == INFECTED and a is not None for m, a in processed)
    if len(server.infected_log) != accepted:
        errors.append(
            f"infected log holds {len(server.infected_log)} reports, "
            f"{accepted} were accepted"
        )
    errors += compare_alerts(processed, expected)
    if errors:
        return errors
    # cross-check the vectorised scan against the oracle on a few queries:
    # the first ones with matches, and some spread over the run
    with_hits = [j for j, (_, ids) in raw.items() if ids][:2]
    spread = list(raw)[:: max(1, len(raw) // 2)][:2]
    for j in dict.fromkeys(with_hits + spread):
        size, ids = raw[j]
        oracle = matcher.scan_match(entries[:size], processed[j][0].encoding, tau)
        if [(e.user_id, e.encoding) for e in oracle] != [store[i] for i in ids]:
            errors.append(f"report {j}: vectorised scan disagrees with scan_match")
    return errors
