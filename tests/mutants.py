"""A catalogue of known defects, each re-created as a mutant of the source.

Every entry names a file, the edits that bring one defect back (each an
exact anchor text, found once in the file, and its replacement), where the
defect was found, and the tests that must fail on it. Running this file
applies each entry in turn to a temporary copy of the tree, runs only its
tests there, and reports the mutant as caught (the tests fail), survived
(they pass) or broken (pytest could not run them):

    python tests/mutants.py            # every entry
    python tests/mutants.py NAME ...   # the entries named

It exits 1 unless every mutant is caught. ``tests/test_mutants.py`` checks,
in tier-1, that every anchor still occurs exactly once and every named
test still exists, so the catalogue cannot rot unseen.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300  # per mutant; its tests take seconds


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the root of the tree
    edits: tuple[tuple[str, str], ...]  # (anchor, replacement), applied in order
    defect: str
    tests: tuple[str, ...]  # pytest node ids, relative to the root


ENGINE, BACKEND, AGENTS, PERSISTENCE = (
    f"src/refgame/{name}.py" for name in ("engine", "backend", "agents", "persistence")
)
BESIDE = "tests/test_engine.py::TestGuessingBesideTheRest"
SIDE_BY_SIDE = "tests/test_engine.py::TestSideBySide"
AHEAD = "tests/test_engine.py::TestSpeakingAhead"

MUTANTS = (
    Mutant(
        "guessing-over-the-current-vocabulary", ENGINE,
        (("guessers = tuple(copy.copy(agent) for agent in agents)", "guessers = agents"),),
        "guessing beside the rest asks the agents themselves, so a guessing prompt built "
        "after labelling shows the learned vocabulary, not the initial language (found while "
        "moving guessing beside the rest of the run)",
        (f"{BESIDE}::test_guessing_asked_again_after_labelling_is_prompted_over_the_initial_language",),
    ),
    Mutant(
        "second-fork-joined-before-the-first-runs", ENGINE,
        (("first_block, second_block = first(event_log), second(fork)",
          "first_block, second_block = first(event_log), second(event_log)"),),
        "the second block (the rest, or a second agent's) writes into the log itself, as if its "
        "fork were joined before the first ran, so the two write into one log and one context",
        (f"{SIDE_BY_SIDE}::test_error_contract", f"{BESIDE}::test_same_log_and_result_as_in_turn"),
    ),
    Mutant(
        "second-records-kept-when-the-first-raises", ENGINE,
        (("                mine = _step(first_block)\n",
          "                try:\n                    mine = _step(first_block)\n"
          "                except BaseException:\n                    event_log.join(fork)\n"
          "                    raise\n"),),
        "when guessing (or the first agent's block) raises, the rest's records are written "
        "anyway, where a run in turn would never have started the rest",
        (f"{SIDE_BY_SIDE}::test_error_contract", f"{BESIDE}::test_same_log_and_result_as_in_turn"),
    ),
    Mutant(
        "fork-joined-before-the-first-is-read", ENGINE,
        (("            yield\n    finally:",
          "            if not fork._file.closed:\n                event_log.join(fork)\n"
          "            yield\n    finally:"),
         ("        second_block.close()\n    event_log.join(fork)\n", "        second_block.close()\n")),
        "the fork is joined once both blocks are sent, before the first is read: the rest's "
        "records so far land before guessing's, and its later ones go to a closed fork",
        (f"{SIDE_BY_SIDE}::test_paths_agree", f"{BESIDE}::test_same_log_and_result_as_in_turn"),
    ),
    Mutant(
        "first-dropped-when-the-second-raises-unsent", ENGINE,
        (("                    _run(first_block)\n                    event_log.join(fork)\n",
          "                    event_log.join(fork)\n"),),
        "when the rest raises, in labelling or communication, before testing's lists are sent, "
        "guessing is never read, so its records are missing before the rest's",
        (f"{SIDE_BY_SIDE}::test_error_contract", f"{BESIDE}::test_same_log_and_result_as_in_turn"),
    ),
    Mutant(
        "a-list-read-before-the-other-is-sent", ENGINE,
        (("                mine = _step(first_block)\n", "                mine = _run(first_block)\n"),),
        "the first block is read before the second is sent: A's list is read before B's goes "
        "out, and guessing before the rest starts, so no two lists are in flight at once",
        (f"{SIDE_BY_SIDE}::test_error_contract", f"{BESIDE}::test_lists_sent_before_they_are_read"),
    ),
    Mutant(
        "guessing-read-before-the-rest-starts", ENGINE,
        (("        result.guessing = yield from blocks\n",
          "        result.guessing = _run(blocks)\n        yield\n"),),
        "guessing is sent and read whole before the rest starts, as in a run in turn: its "
        "requests overlap nothing, and each agent opens one connection fewer",
        (f"{BESIDE}::test_lists_sent_before_they_are_read",
         "tests/test_cli.py::TestWireRun::test_one_request_per_agent_per_block"),
    ),
    Mutant(
        "guessing-drawn-when-read", ENGINE,
        (('    event_log.set_context(block="guessing", round=None, task=None, agent=agent.agent_id)\n',
          '    event_log.set_context(block="guessing", round=None, task=None, agent=agent.agent_id)\n    yield\n'),),
        "guessing's draws are made and its lists sent when it is read, after the rest: a collapsed "
        "language's draw raises only once the rest has sent every request",
        (f"{BESIDE}::test_collapsed_language_aborts_before_any_request",
         f"{BESIDE}::test_lists_sent_before_they_are_read"),
    ),
    Mutant(
        "tasks-asked-again-in-turn", ENGINE,
        (("answer = yield from _alone(ask, item, prompt_task, rng, attempts, event_log)",
          "answer = _run(_alone(ask, item, prompt_task, rng, attempts, event_log))"),),
        "a block reads each task it asks again alone before it yields, so one agent's retries "
        "wait on each other and on nothing else, where worker threads overlapped the two "
        "agents' and guessing's with testing's (found in review of the thread-free engine)",
        (f"{BESIDE}::test_tasks_asked_again_overlap",),
    ),
    Mutant(
        "request-left-open-when-the-block-beside-raises", ENGINE,
        (("        reply.close()\n        raise\n", "        raise\n"),),
        "when guessing raises, testing's lists, sent and never to be read, keep their "
        "connections open until the garbage collector finds them (found in review of the "
        "thread-free engine)",
        (f"{BESIDE}::test_same_log_and_result_as_in_turn",
         f"{BESIDE}::test_requests_in_flight_closed_when_guessing_raises"),
    ),
    Mutant(
        "second-left-waiting-when-the-first-raises", ENGINE,
        (("        first_block.close()\n        second_block.close()\n", "        pass\n"),),
        "a block left waiting beside one that raised is closed only when its traceback is "
        "collected, so its requests stay open while the abort is handled",
        (f"{BESIDE}::test_requests_in_flight_closed_when_guessing_raises",),
    ),
    Mutant(
        "partial-result-keeps-the-rest-when-guessing-raises", ENGINE,
        (("        if not result.guessing:  # the rest's blocks go with its records\n", "        if False:\n"),),
        "an abort in guessing leaves the labelling the rest finished beside it in the partial "
        "result, so the manifest names blocks whose records were dropped",
        (f"{BESIDE}::test_same_log_and_result_as_in_turn",),
    ),
    Mutant(
        "success-predicted", ENGINE,
        (("next_signal = sent.speaking.peek(0)  # t predicted to fail",
          "next_signal = sent.speaking.peek(1)  # t predicted to fail"),
         ("speaker.vocabulary.update(stimulus, signal, 0)  # t's record updates it again",
          "speaker.vocabulary.update(stimulus, signal, 1)  # t's record updates it again"),
         ("if next_sent is not None and flag:", "if next_sent is not None and not flag:")),
        "listening ahead on the prediction that t succeeds, which against the benchmark stub "
        "is wrong in most interactions and sends more requests (CHANGES.md, listening ahead)",
        ("tests/test_cli.py::TestWireRun::test_one_request_per_agent_per_block",
         f"{AHEAD}::test_which_tasks_are_asked_ahead"),
    ),
    Mutant(
        "no-rng-rewind-on-a-wrong-prediction", ENGINE,
        (("                        rng.setstate(mark)\n", "                        pass\n"),),
        "a wrong prediction keeps the draws made for t+1's overlap, so t+1 draws from a later "
        "state than in turn (CHANGES.md, listening ahead: missing rng rewind)",
        (f"{AHEAD}::test_same_records_as_in_turn",),
    ),
    Mutant(
        "listening-request-sent-first", ENGINE,
        (("send_listening = listener.listen_ahead([heard], PromptTask.LISTENING, rng)",
          "listening = listener.listen_ahead([heard], PromptTask.LISTENING, rng)()"),
         ("return _Overlap(send_listening(), before, next_candidates, speaking)",
          "return _Overlap(listening, before, next_candidates, speaking)")),
        "each overlap posts its listening request before the speaking request for t+1, which "
        "then queues behind it (CHANGES.md, speaking request first)",
        (f"{AHEAD}::test_speaking_request_sent_just_before_its_listening_request",),
    ),
    Mutant(
        "discard-under-the-current-agent", ENGINE,
        (("        event_log.set_context(agent=owner)\n", "        event_log.set_context(agent=agent)\n"),),
        "a discarded request is logged under the agent of the current context, not the agent "
        "that sent it (CHANGES.md, discarded records name their sender)",
        (f"{AHEAD}::test_same_run_as_in_turn",),
    ),
    Mutant(
        "reply-sent-ahead-not-an-attempt", ENGINE,
        (("attempts - (ahead is not None), event_log))", "attempts, event_log))"),),
        "a speaking reply read ahead that does not parse is not counted as the task's first "
        "attempt, so the speaker is asked once more than in turn (found while asking each "
        "production through one call)",
        (f"{AHEAD}::test_dyad_with_an_oracle_runs_in_turn_beside_it", f"{AHEAD}::test_same_run_as_in_turn",
         "tests/test_identity.py::test_wire_outputs_are_byte_identical"),
    ),
    Mutant(
        "listening-sent-ahead-not-an-attempt", ENGINE,
        (("attempts - (sent is not None), event_log))", "attempts, event_log))"),),
        "a listening request sent ahead that fails is not counted as the choice's first attempt, "
        "so the listener is asked once more than in turn (found while asking each choice "
        "through one call)",
        (f"{AHEAD}::test_same_records_as_in_turn", f"{AHEAD}::test_dyad_with_an_oracle_runs_in_turn_beside_it"),
    ),
    Mutant(
        "failed-read-leaves-no-record", BACKEND,
        (("            self._backend._log_failed(event_log, self.call, err, self.tasks)\n", "            pass\n"),),
        "a request that fails leaves no trace in the event log: a run against a service that "
        "answers every request with 404, or whose prompts are all over the context budget, "
        "logs only failed block records",
        ("tests/test_cli.py::TestWireRun::test_every_failed_read_leaves_a_record",
         "tests/test_backend.py::test_a_request_fails_at_its_read"),
    ),
    Mutant(
        "unsent-request-discard-logged", BACKEND,
        (("        if not isinstance(self.outcome, ContextOverflow):\n            self._log(",
          "        if True:\n            self._log("),),
        "a request left unsent over the context budget and then discarded is logged as "
        "discarded, as if it had gone out (found in review of the failed-read records)",
        ("tests/test_backend.py::test_a_request_fails_at_its_read",),
    ),
    Mutant(
        "argmax-keeps-the-last-greatest", AGENTS,
        (("return max(range(len(values)), key=values.__getitem__)",
          "return max(reversed(range(len(values))), key=values.__getitem__)"),),
        "a choice among equal scores takes the last candidate, not the first in the shuffled "
        "order (CHANGES.md, one path per step of an agent's round trip)",
        ("tests/test_agents.py",),
    ),
    Mutant(
        "llm-agent-runs-in-turn", AGENTS,
        (("    speaks_ahead = True\n", "    speaks_ahead = False\n"),),
        "an llm agent runs communication in turn, as it did over a backend that could not keep "
        "a request in flight: nothing is listened or spoken ahead",
        ("tests/test_cli.py::TestWireRun::test_one_request_per_agent_per_block",),
    ),
    Mutant(
        "list-sent-when-read", AGENTS,
        (("        self._pending = send()\n        self._answer, self._failed = answer, failed\n",
          "        self._send, self._pending = send, None\n        self._answer, self._failed = answer, failed\n\n"
          "    def _sent(self):\n"
          "        if self._send is not None:\n"
          "            send, self._send = self._send, None\n"
          "            self._pending = send()\n"
          "        return self._pending\n"),
         ("results = None if self._pending is None else", "results = None if self._sent() is None else"),
         ("        if self._pending is None:\n            return self._failed\n",
          "        if self._sent() is None:\n            return self._failed\n"),
         ("        if self._pending is not None:\n            self._pending.discard(",
          "        if self._sent() is not None:\n            self._pending.discard(")),
        "a list's request is sent when its reply is first read or peeked, as over a backend "
        "without a request form that sends at once: no two lists are in flight together",
        (f"{BESIDE}::test_lists_sent_before_they_are_read",
         "tests/test_cli.py::TestWireRun::test_agents_lists_in_flight_at_once"),
    ),
    Mutant(
        "missing-block-record-replays", PERSISTENCE,
        (("    if unseen:\n        raise PersistenceError", "    if False:\n        raise PersistenceError"),),
        "replay accepts a log that lacks a block record whenever no metric moves (ROADMAP "
        "item 20, step 1)",
        ("tests/test_cli.py::TestReplayCommand::test_missing_or_repeated_block_record_refused",),
    ),
    Mutant(
        "manifest-digests-leftovers", PERSISTENCE,
        (("for path in sorted(written)}",
          'for path in sorted(base.rglob("*")) if path.is_file() and path.name != "manifest.json"}'),),
        "the manifest digests every file in the run directory, so files an earlier run left "
        "there are listed as this run's (found by saving a run of fewer rounds over another)",
        ("tests/test_persistence.py::TestSaveAndManifest::test_files_an_earlier_run_left_are_not_digested",
         "tests/test_persistence.py::TestPartialPersist::test_incomplete_manifest_lists_no_file_of_an_earlier_run"),
    ),
    Mutant(
        "manifest-keeps-a-credential-in-the-endpoint", BACKEND,
        (('url.netloc.rpartition("@")[2]', "url.netloc"),),
        "the manifest records the endpoint with the user info it may carry a password in",
        ("tests/test_cli.py::TestWireRun::test_manifest_names_the_service_and_no_credential",),
    ),
)


def applied(text: str, mutant: Mutant) -> str:
    """``text`` with ``mutant``'s edits made; an anchor that does not occur
    exactly once raises ``ValueError``."""
    for anchor, replacement in mutant.edits:
        if text.count(anchor) != 1:
            raise ValueError(f"{mutant.name}: anchor found {text.count(anchor)} times in {mutant.path}: {anchor!r}")
        text = text.replace(anchor, replacement)
    return text


def _copy_tree(destination: Path) -> None:
    shutil.copytree(ROOT, destination, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench_work", "runs",
    ))
    # the corpus of old run directories is data the tests read
    shutil.copytree(ROOT / "tests" / "data" / "runs", destination / "tests" / "data" / "runs")


def run(mutant: Mutant, tree: Path) -> tuple[str, str]:
    """``caught``, ``survived`` or ``broken``, the outcome of ``mutant``'s
    tests on ``tree`` with its edits made, and pytest's last line; the file
    is restored afterwards."""
    path = tree / mutant.path
    original = path.read_text()
    path.write_text(applied(original, mutant))
    try:
        completed = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests],
            cwd=tree, capture_output=True, text=True, timeout=TIMEOUT_S,
            env={**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
        )
    except subprocess.TimeoutExpired:  # a mutant that hangs its tests is not caught by them
        return "broken", f"no result within {TIMEOUT_S} s"
    finally:
        path.write_text(original)
    outcome = {0: "survived", 1: "caught"}.get(completed.returncode, "broken")
    return outcome, (completed.stdout.strip().splitlines() or [completed.stderr.strip()])[-1]


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    if unknown := set(names) - {m.name for m in MUTANTS}:
        sys.exit(f"unknown mutant(s): {sorted(unknown)}")
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(scratch) / "tree"
        _copy_tree(tree)
        probe = subprocess.run(
            [sys.executable, "-c", "import refgame; print(refgame.__file__)"],
            cwd=tree, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(tree / "src")},
        )
        if not probe.stdout.strip().startswith(str(tree)):
            sys.exit(f"refgame imports from {probe.stdout.strip() or probe.stderr}, not the copy")
        outcomes = {}
        for mutant in chosen:
            started = time.monotonic()
            outcomes[mutant.name], summary = run(mutant, tree)
            print(f"{outcomes[mutant.name]:8s} {mutant.name} ({time.monotonic() - started:.1f} s): {summary}",
                  flush=True)
    missed = [name for name, outcome in outcomes.items() if outcome != "caught"]
    print(f"{len(outcomes) - len(missed)} of {len(outcomes)} mutants caught")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
