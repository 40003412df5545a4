"""Tests for the journaled run store and checkpoint/resume wiring."""

import json
import os

import pytest

from repro.core.comparator import EdgeCloudComparator
from repro.core.scenarios import TYPICAL_CLOUD
from repro.experiments.store import (
    JournalCorruptError,
    RunJournal,
    fsync_append,
    open_journal,
)
from repro.parallel import run_tasks
from repro.parallel.chaos import synthetic_point
from repro.stats.replications import replicate


def _mean_stat(seed):
    return synthetic_point(seed, 8.0)[0]


class TestFsyncAppend:
    def test_requires_newline(self, tmp_path):
        fd = os.open(tmp_path / "f", os.O_WRONLY | os.O_CREAT)
        try:
            with pytest.raises(ValueError, match="newline"):
                fsync_append(fd, "no trailing newline")
            fsync_append(fd, "ok\n")
        finally:
            os.close(fd)
        assert (tmp_path / "f").read_text() == "ok\n"


class TestRunJournal:
    def test_new_file_gets_header(self, tmp_path):
        path = tmp_path / "j"
        with RunJournal(path) as j:
            assert len(j) == 0
        header = json.loads(path.read_text().splitlines()[0])
        assert header == {"format": "repro-journal", "v": 1}

    def test_put_get_roundtrip_exact(self, tmp_path):
        value = {"summary": (0.5, 1.25), "arr": [1e-9, 3.3333333333333335]}
        with RunJournal(tmp_path / "j", scope="s") as j:
            k = j.key(label="t", index=0, args=(1, 2.5))
            assert j.get(k) == (False, None)
            j.put(k, value, label="t", index=0, args=(1, 2.5))
            assert j.get(k) == (True, value)
        # ...and after reopening (the durable path).
        with RunJournal(tmp_path / "j", scope="s") as j:
            assert j.get(k) == (True, value)
            assert k in j and len(j) == 1

    def test_put_is_idempotent(self, tmp_path):
        path = tmp_path / "j"
        with RunJournal(path) as j:
            k = j.key(label="t", index=0, args=())
            j.put(k, 1)
            j.put(k, 1)
        assert len(path.read_text().splitlines()) == 2  # header + one record

    def test_keys_disambiguate(self, tmp_path):
        with RunJournal(tmp_path / "j", scope="a") as j:
            base = j.key(label="t", index=0, args=(1,))
            assert j.key(label="t", index=1, args=(1,)) != base
            assert j.key(label="u", index=0, args=(1,)) != base
            assert j.key(label="t", index=0, args=(2,)) != base
            assert j.key(label="t", index=0, args=(1,), fn=_mean_stat) != base
        with RunJournal(tmp_path / "j", scope="b") as j2:
            assert j2.key(label="t", index=0, args=(1,)) != base

    def test_scopes_share_one_file(self, tmp_path):
        path = tmp_path / "j"
        with RunJournal(path, scope="a") as j:
            j.put(j.key(label="t", index=0, args=()), "from-a")
        with RunJournal(path, scope="b") as j:
            assert j.get(j.key(label="t", index=0, args=())) == (False, None)
            j.put(j.key(label="t", index=0, args=()), "from-b")
        with RunJournal(path, scope="a") as j:
            assert j.get(j.key(label="t", index=0, args=()))[1] == "from-a"

    def test_truncated_tail_dropped(self, tmp_path):
        path = tmp_path / "j"
        with RunJournal(path) as j:
            j.put(j.key(label="t", index=0, args=()), 10)
            j.put(j.key(label="t", index=1, args=()), 11)
        # Simulate a crash mid-append: chop the final record in half.
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 20])
        with RunJournal(path) as j:
            assert len(j) == 1
            assert j.get(j.key(label="t", index=0, args=())) == (True, 10)
            assert j.get(j.key(label="t", index=1, args=())) == (False, None)

    def test_mid_file_corruption_refuses_to_load(self, tmp_path):
        path = tmp_path / "j"
        with RunJournal(path) as j:
            j.put(j.key(label="t", index=0, args=()), 10)
        with open(path, "a") as fh:
            fh.write("garbage not json\n")
            fh.write('{"k":"abc","p":""}\n')  # valid line AFTER the garbage
        with pytest.raises(JournalCorruptError, match="refusing to resume"):
            RunJournal(path)

    def test_corruption_error_names_path_and_byte_offset(self, tmp_path):
        path = tmp_path / "j"
        with RunJournal(path) as j:
            j.put(j.key(label="t", index=0, args=()), 10)
        header_and_record = len(path.read_bytes())
        garbage = b"garbage not json\n"
        with open(path, "ab") as fh:
            fh.write(garbage)
            fh.write(b'{"k":"abc","p":""}\n')  # valid line AFTER the garbage
        with pytest.raises(JournalCorruptError) as ei:
            RunJournal(path)
        msg = str(ei.value)
        assert str(path) in msg
        # The offending record's exact byte span is named.
        start = header_and_record
        end = start + len(garbage) - 1  # span excludes the newline
        assert f"byte offset {start}" in msg
        assert f"bytes {start}-{end}" in msg

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "j"
        path.write_text('{"some": "other json"}\n')
        with pytest.raises(JournalCorruptError, match="not a repro journal"):
            RunJournal(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "j"
        path.write_text('{"format":"repro-journal","v":99}\n')
        with pytest.raises(JournalCorruptError, match="version"):
            RunJournal(path)

    def test_require_existing(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="resume"):
            RunJournal(tmp_path / "nope", require_existing=True)
        with RunJournal(tmp_path / "j"):
            pass
        RunJournal(tmp_path / "j", require_existing=True).close()

    def test_put_after_close_raises(self, tmp_path):
        j = RunJournal(tmp_path / "j")
        k = j.key(label="t", index=0, args=())
        j.close()
        with pytest.raises(ValueError, match="closed"):
            j.put(k, 1)


class TestOpenJournal:
    def test_none_disables(self):
        assert open_journal(None, scope="s") == (None, False)

    def test_path_opens_owned(self, tmp_path):
        journal, owned = open_journal(tmp_path / "j", scope="s")
        assert owned and journal.scope == "s"
        journal.close()

    def test_existing_journal_passes_through(self, tmp_path):
        with RunJournal(tmp_path / "j", scope="orig") as j:
            journal, owned = open_journal(j, scope="ignored")
            assert journal is j and not owned
            assert journal.scope == "orig"

    def test_resume_requires_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            open_journal(tmp_path / "nope", scope="s", resume=True)


class TestCheckpointResumeBitIdentity:
    """A killed sweep resumed from its journal equals the uninterrupted run."""

    RATES = (6.0, 7.5, 9.0, 10.5)

    def _comparator(self, seed=17):
        return EdgeCloudComparator(TYPICAL_CLOUD, requests_per_site=2000, seed=seed)

    def test_sweep_resume_bit_identical(self, tmp_path):
        cmp_ = self._comparator()
        baseline = cmp_.sweep(self.RATES)
        path = tmp_path / "sweep.journal"
        # "Killed" run: only a prefix of the grid completed.
        cmp_.sweep(self.RATES[:2], checkpoint=path)
        resumed = cmp_.sweep(self.RATES, checkpoint=path, resume=True)
        assert resumed.points == baseline.points  # dataclass float equality = bit identity
        # A second resume replays everything from disk.
        replayed = cmp_.sweep(self.RATES, checkpoint=path, resume=True)
        assert replayed.points == baseline.points

    def test_sweep_resume_any_worker_count(self, tmp_path):
        cmp_ = self._comparator()
        baseline = cmp_.sweep(self.RATES)
        path = tmp_path / "sweep.journal"
        cmp_.sweep(self.RATES[1:3], checkpoint=path)
        resumed = cmp_.sweep(self.RATES, workers=3, checkpoint=path)
        assert resumed.points == baseline.points

    def test_differently_configured_comparators_never_collide(self, tmp_path):
        path = tmp_path / "shared.journal"
        a = self._comparator(seed=17)
        b = self._comparator(seed=18)
        ra = a.sweep(self.RATES[:1], checkpoint=path)
        rb = b.sweep(self.RATES[:1], checkpoint=path)
        assert ra.points[0] != rb.points[0]
        # Replays still resolve to their own results.
        assert a.sweep(self.RATES[:1], checkpoint=path).points == ra.points
        assert b.sweep(self.RATES[:1], checkpoint=path).points == rb.points

    def test_fastsim_and_des_sweeps_share_a_journal(self, tmp_path, monkeypatch):
        """The engines agree only to rounding, so neither may replay the
        other's points; a DES sweep still resumes bit-identically."""
        des_points = []
        measure_des = EdgeCloudComparator._measure_point_des

        def counting(self, *args):
            des_points.append(args[0])
            return measure_des(self, *args)

        monkeypatch.setattr(EdgeCloudComparator, "_measure_point_des", counting)
        path = tmp_path / "shared.journal"
        fast = self._comparator()
        des = EdgeCloudComparator(
            TYPICAL_CLOUD, requests_per_site=2000, seed=17, engine="des"
        )
        fast_baseline = fast.sweep(self.RATES, checkpoint=path)
        des_baseline = des.sweep(self.RATES)
        assert len(des_points) == len(self.RATES)
        # Rounding differs, so a cross-engine replay would show below.
        assert des_baseline.points != fast_baseline.points

        des_points.clear()
        des.sweep(self.RATES[:2], checkpoint=path)  # "killed" DES run
        assert des_points == list(self.RATES[:2])  # nothing replayed from fastsim
        resumed = des.sweep(self.RATES, checkpoint=path, resume=True)
        assert des_points == list(self.RATES)
        assert resumed.points == des_baseline.points
        assert des.sweep(self.RATES, checkpoint=path, resume=True).points == des_baseline.points
        assert des_points == list(self.RATES)  # the second resume came from disk
        assert fast.sweep(self.RATES, checkpoint=path, resume=True).points == fast_baseline.points

    def test_replicate_checkpoint(self, tmp_path):
        path = tmp_path / "rep.journal"
        baseline = replicate(_mean_stat, 6, base_seed=5)
        checkpointed = replicate(_mean_stat, 6, base_seed=5, checkpoint=path)
        resumed = replicate(_mean_stat, 6, base_seed=5, checkpoint=path,
                            resume=True)
        assert baseline.values == checkpointed.values == resumed.values

    def test_find_crossover_checkpoint(self, tmp_path):
        cmp_ = self._comparator()
        grid = [0.4, 0.55, 0.7, 0.85]
        base = cmp_.find_crossover("mean", grid)
        path = tmp_path / "cross.journal"
        first = cmp_.find_crossover("mean", grid, checkpoint=path)
        again = cmp_.find_crossover("mean", grid, checkpoint=path, resume=True)
        assert first == base == again


class TestJournalAgnosticToTaskOrder:
    def test_replay_matches_on_content_not_position(self, tmp_path):
        path = tmp_path / "j"
        tasks = [(s, 6.0) for s in (3, 1, 2)]
        with RunJournal(path, scope="order") as j:
            forward = run_tasks(synthetic_point, tasks, journal=j)
        # Same specs in a different order: replay must follow the spec.
        with RunJournal(path, scope="order") as j:
            assert len(j) == 3
            # index is part of the key, so a reordered list recomputes
            # only the moved entries rather than mismatching them.
            shuffled = run_tasks(synthetic_point, list(reversed(tasks)), journal=j)
        assert shuffled == list(reversed(forward))
