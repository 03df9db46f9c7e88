"""Round-boundary chase checkpoints: the engine state beside the facts.

A durable fact store (:mod:`repro.storage.durable`) persists the
*instance*; resuming a chase additionally needs the *evaluation state*
— which triggers already fired, which fact ordinals still await a
discovery pass, where null numbering stands, and (when the run stopped
mid-round) which materialized triggers of the interrupted round were
never applied.  This module persists exactly that, append-only, in
three files inside the store directory:

``steps.q``
    One record per applied step, in application order::

        [rule_index, n_ids, *ids, n_ords, *ords]

    ``ids`` is the trigger's interned homomorphism (aligned with the
    rule's name-sorted body variables), ``ords`` the log ordinals of
    the facts it produced.  The resumed run rebuilds its ``steps``
    list from these, so fingerprints (trigger keys + provenance) are
    byte-identical to the uninterrupted run's.
``fired.q``
    One record per fired *key*, in hand-out order::

        [rule_index, n, *ids]

    Keys are variant-projected (semi-oblivious keys carry the frontier
    restriction only), exactly as they live in the engine's fired set;
    ``n = -1`` marks a scalar key (single-frontier-variable rules key
    on a bare int, and the decoded shape must match exactly).
``chase.pkl``
    A small pickled header rewritten atomically at every checkpoint:
    variant, ``max_steps``, the rules themselves (TGDs pickle), the
    two files' record/int watermarks, the null counter, the frontier,
    the interrupted round's pending triggers, and the fact count the
    header describes.  Older headers also carry a ``planner`` key; one
    recording ``"cost"`` is refused at load, because its run numbered
    nulls in another discovery order than this build chases in.

Write order is data appends → manifest (the store commit, see
:class:`~repro.storage.durable.StoreWriter.flush`) → header.  A crash
between manifest and header leaves an old header whose fact count
disagrees with the manifest — refused at load with a clear error; a
crash before the manifest leaves the previous checkpoint fully intact
(uncommitted appends are invisible).

Null numbering is not persisted per-null: every fired trigger mints
``len(rule.existentials_sorted)`` fresh nulls (head-row dedup happens
*after* minting — see ``apply_trigger_ids``), so the counter is a
running sum over the step log, maintained incrementally here.
"""

from __future__ import annotations

import os
import pickle
from array import array
from typing import List, Optional, Sequence, Tuple

from ..model import Instance, TGD
from ..storage.durable import (
    CHASE_STATE,
    StoreFormatError,
    StoreWriter,
    _read_ints,
)
from .delta import DeltaEngine
from .result import ChaseStep
from .triggers import Trigger

STEPS_FILE = "steps.q"
FIRED_FILE = "fired.q"

CHECKPOINT_FORMAT = 1


def _atomic_pickle(path: str, payload: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, path)


class Checkpointer:
    """Round-boundary persister for one chase run over one store
    directory.  Owns the directory's :class:`StoreWriter`; every
    :meth:`checkpoint` appends the fact/step/fired tails and rewrites
    the two commit records (manifest, then header)."""

    __slots__ = ("writer", "rules", "variant", "max_steps",
                 "_written_max_steps", "n_steps", "steps_ints", "n_fired",
                 "fired_ints", "fired_logged", "null_next")

    def __init__(self, writer: StoreWriter, rules: Sequence[TGD],
                 variant: str, max_steps: int,
                 state: Optional[dict] = None):
        self.writer = writer
        self.rules = list(rules)
        self.variant = variant
        self.max_steps = max_steps
        #: The cap the header on disk records (none yet for a new run).
        self._written_max_steps = None if state is None else state["max_steps"]
        if state is None:
            self.n_steps = 0
            self.steps_ints = 0
            self.n_fired = 0
            self.fired_ints = 0
            self.null_next = 1
        else:
            self.n_steps = state["n_steps"]
            self.steps_ints = state["steps_ints"]
            self.n_fired = state["n_fired"]
            self.fired_ints = state["fired_ints"]
            self.null_next = state["null_next"]
        # How much of the engine's (per-run, starts empty) fired log
        # has been encoded — distinct from ``n_fired``, the total
        # persisted across all legs of the run.
        self.fired_logged = 0

    @classmethod
    def create(cls, path: str, instance: Instance, rules: Sequence[TGD],
               variant: str, max_steps: int,
               overwrite: bool = False) -> "Checkpointer":
        """A fresh checkpointed run: creates the store directory (see
        :meth:`StoreWriter.create` for the overwrite contract)."""
        writer = StoreWriter.create(path, instance.store,
                                    overwrite=overwrite)
        return cls(writer, rules, variant, max_steps)

    @classmethod
    def attach(cls, path: str, instance: Instance, state: dict,
               max_steps: int) -> "Checkpointer":
        """Continue checkpointing a resumed run into its directory."""
        writer = StoreWriter.attach(path, instance.store)
        return cls(writer, state["rules"], state["variant"], max_steps,
                   state=state)

    def set_max_steps(self, max_steps: int) -> None:
        """Raise (or change) the step budget that the next checkpoint
        records — an extension leg that continues a finished or
        budget-stopped run sets its new cap here so that a later
        ``resume_chase`` sees it.  A leg that adds nothing to a
        finished run still checkpoints when this cap differs from the
        one the header on disk records (see
        :meth:`~repro.chase.incremental.ChaseSession.extend`)."""
        self.max_steps = max_steps

    def checkpoint(
        self,
        engine: DeltaEngine,
        steps: Sequence[ChaseStep],
        pending: Sequence[Trigger] = (),
        rounds: int = 0,
        terminated: bool = False,
        stop_reason: Optional[str] = None,
    ) -> None:
        """Persist everything the directory is missing about the run:
        fact tails (via the writer), step/fired tails, then the header.
        ``pending`` is the not-yet-applied remainder of an interrupted
        round, in canonical order."""
        instance = engine.instance
        # 1. applied-step tail.
        new_steps = steps[self.n_steps:]
        if new_steps:
            buf = array("q")
            for step in new_steps:
                trigger = step.trigger
                ids = trigger.ids(instance)
                ords = step._ordinals
                buf.append(trigger.rule_index)
                buf.append(len(ids))
                buf.extend(ids)
                buf.append(len(ords))
                buf.extend(ords)
                self.null_next += len(trigger.rule.existentials_sorted)
            self.writer.append_ints(STEPS_FILE, buf)
            self.steps_ints += len(buf)
            self.n_steps = len(steps)
        # 2. fired-key tail, off the engine's hand-out-order log.
        log = engine.fired_log or ()
        new_keys = log[self.fired_logged:]
        if new_keys:
            buf = array("q")
            for rule_index, ids in new_keys:
                buf.append(rule_index)
                if type(ids) is int:
                    # Single-frontier-variable semi-oblivious keys are
                    # scalar (see TGD._frontier_get); -1 marks the
                    # shape so decode rebuilds the exact key.
                    buf.append(-1)
                    buf.append(ids)
                else:
                    buf.append(len(ids))
                    buf.extend(ids)
            self.writer.append_ints(FIRED_FILE, buf)
            self.fired_ints += len(buf)
            self.n_fired += len(new_keys)
            self.fired_logged = len(log)
        # 3. fact data + manifest (the store commit point).
        self.writer.flush(extra={"chase": True})
        # 4. the header, describing exactly the committed state.
        header = {
            "format": CHECKPOINT_FORMAT,
            "variant": self.variant,
            "max_steps": self.max_steps,
            "rules": tuple(self.rules),
            "n_steps": self.n_steps,
            "steps_ints": self.steps_ints,
            "n_fired": self.n_fired,
            "fired_ints": self.fired_ints,
            "null_next": self.null_next,
            "frontier": engine.frontier_snapshot(),
            "pending": tuple(
                (t.rule_index, tuple(t.ids(instance))) for t in pending
            ),
            "rounds": rounds,
            "terminated": terminated,
            "stop_reason": stop_reason,
            "facts": len(instance),
        }
        _atomic_pickle(
            os.path.join(self.writer.path, CHASE_STATE), header
        )
        self._written_max_steps = self.max_steps


def load_state(path: str, store) -> dict:
    """The resume state of a checkpointed store directory: the header
    plus the decoded step records (``state["steps"]`` as
    ``(rule_index, ids, ordinals)`` triples) and fired-key set
    (``state["fired"]``).  Refuses headers torn relative to the
    store's committed fact count."""
    header_path = os.path.join(path, CHASE_STATE)
    if not os.path.exists(header_path):
        raise StoreFormatError(
            f"{path}: no {CHASE_STATE} — the store holds facts but no "
            f"chase checkpoint (saved with Instance.save()?); "
            f"it can be queried, not resumed"
        )
    with open(header_path, "rb") as fh:
        state = pickle.load(fh)
    if state.get("format") != CHECKPOINT_FORMAT:
        raise StoreFormatError(
            f"{path}: checkpoint format {state.get('format')!r}, "
            f"this build reads {CHECKPOINT_FORMAT}"
        )
    if state.get("planner", "heuristic") != "heuristic":
        raise StoreFormatError(
            f"{path}: checkpoint recorded join order "
            f"{state['planner']!r}; this build chases only in the "
            f"syntactic order, and resuming in another discovery order "
            f"would number nulls differently from the saved run"
        )
    if state["facts"] != store.size():
        raise StoreFormatError(
            f"{path}: torn checkpoint — header describes "
            f"{state['facts']} facts, store committed {store.size()}"
        )
    flat = _read_ints(os.path.join(path, STEPS_FILE), state["steps_ints"])
    steps: List[Tuple[int, Tuple[int, ...], Tuple[int, ...]]] = []
    i = 0
    for _ in range(state["n_steps"]):
        rule_index = flat[i]
        n = flat[i + 1]
        i += 2
        ids = tuple(flat[i:i + n])
        i += n
        n = flat[i]
        i += 1
        ords = tuple(flat[i:i + n])
        i += n
        steps.append((rule_index, ids, ords))
    state["steps"] = steps
    flat = _read_ints(os.path.join(path, FIRED_FILE), state["fired_ints"])
    fired: set = set()
    i = 0
    for _ in range(state["n_fired"]):
        rule_index = flat[i]
        n = flat[i + 1]
        i += 2
        if n == -1:
            fired.add((rule_index, flat[i]))
            i += 1
        else:
            fired.add((rule_index, tuple(flat[i:i + n])))
            i += n
    state["fired"] = fired
    return state
