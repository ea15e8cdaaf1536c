"""The three workloads: inputs from a seed, one cycle of operations, checks.

One client, closed loop: each operation starts when the previous one has
finished.  A cycle runs every operation kind of its workload once, so a
run of whole cycles holds every kind equally often.  Only the call into
fockflow is timed; input generation and output checks sit outside it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns

import oracles
import spans

KINDS = ("path-path", "spin-spin", "spin-path", "path-spin")
STATS = ("fermion", "boson", "distinguishable")
# sweep grid points per phase axis: 4^4 = 256 evals, about as long as one
# chsh search; distinguishable evals cost twice as much (16 modes, not 8)
GRID_STEPS = {"fermion": 4, "boson": 4, "distinguishable": 3}
SEARCH_EVALS = 16 * 16 + 4 + 1  # dial grid, the four replays, one probe run
COMMAND_TIMEOUT_S = 60
# what a check may raise on malformed output: that output fails its check
MALFORMED = (ValueError, KeyError, TypeError, IndexError)


@dataclass
class Result:
    label: str
    ns: int  # wall time of the call into fockflow
    units: int  # evals, circuits or commands done by the call
    status: str  # "ok", "failed" or "known_defect"
    reason: str | None = None
    spans: list | None = None


def _status(reason):
    return "ok" if reason is None else "failed"


def child_env(root: Path) -> dict:
    """This environment (threads already pinned) with ``src/`` importable."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Workload:
    """``commands()`` draws one cycle of inputs, ``run_op`` runs and checks one."""

    def close(self):
        pass

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _phases(rng):
    return [rng.uniform(-math.pi, math.pi) for _ in range(4)]


def _phase_flags(phases):
    return [f"--phase-{p}={v!r}" for p, v in zip("ldru", phases)]


class PhaseGrid(Workload):
    """Two-particle grids through ``fockflow.cli.main`` in this process."""

    name = "phase-grid"

    def __init__(self, root: Path, seed: int):
        import fockflow.cli

        self.cli = fockflow.cli
        self.rng = random.Random(seed)
        self.cdl_file = str(root / "src" / "fockflow" / "examples" / "hh_fermion.cdl")
        self.kind_offset = self.rng.randrange(len(KINDS))
        self.cycle = 0

    def commands(self):
        # kinds rotate, so every four cycles sweep each kind once per statistics
        out = []
        for i, stats in enumerate(STATS):
            kind = KINDS[(self.kind_offset + self.cycle + i) % len(KINDS)]
            steps = GRID_STEPS[stats]
            argv = ["sweep", "hh", "--stats", stats, "--kind", kind, "--steps", str(steps)]
            out.append((argv, steps**4, ("sweep", "hh", stats, kind, steps)))
        steps = GRID_STEPS["boson"]
        argv = ["sweep", "swap", "--steps", str(steps)]
        out.append((argv, steps**4, ("sweep", "swap", "boson", "spin-path", steps)))
        for circuit in ("hh", "swap", self.cdl_file):
            out.append((["chsh", circuit, "--search", "--json"], SEARCH_EVALS, ("chsh",)))
        self.rng.shuffle(out)
        self.cycle += 1
        return out

    def _main(self, argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = perf_counter_ns()
            code = self.cli.main(argv)  # module attribute, so a tracer's wrapper applies
            ns = perf_counter_ns() - start
        return code, ns, stdout.getvalue(), stderr.getvalue()

    def warm_up(self):
        for argv in (["table", "hh"], ["chsh", "hh"], ["chsh", self.cdl_file]):
            self._main(argv)

    def run_op(self, command, tracer):
        argv, units, what = command
        label = f"chsh {Path(argv[1]).name}" if what[0] == "chsh" else f"sweep {what[1]} {what[2]}"
        try:
            code, ns, out, err = self._main(argv)
        except Exception as e:  # a traceback is a failed operation, not a crash
            return Result(label, 0, units, "failed", f"{type(e).__name__}: {e}")
        try:
            if code != 0:
                reason = f"exit {code}: {err.strip()[:200]}"
            elif what[0] == "sweep":
                reason = oracles.check_sweep_csv(out, *what[1:])
            else:
                reason = oracles.check_chsh_search(json.loads(out))
        except MALFORMED as e:
            reason = f"malformed output: {type(e).__name__}: {e}"
        return Result(label, ns, units, _status(reason), reason)


class ManyParticle(Workload):
    """Seeded N-particle meshes through parse_source -> compile_circuit -> execute."""

    name = "many-particle"
    # circuits per statistics per cycle: N=3 and N=4 take 10 and 60 ms, so a
    # stolen slice of the shared host can triple one of them; the median of
    # several per cycle cannot be moved by one
    REPEATS = {3: 5, 4: 3, 5: 1}

    def __init__(self, root: Path, seed: int):
        import fockflow.cdl

        self.cdl = fockflow.cdl
        self.rng = random.Random(seed)

    def circuit(self, n: int, stats: str):
        """N particles on 2N ports, 2N layers of random splitter pairs and phases."""
        rng = self.rng
        m = 2 * n
        inputs = sorted(rng.sample(range(m), n))
        layers = []
        for _ in range(m):
            order = list(range(m))
            rng.shuffle(order)
            pairs = list(zip(order[::2], order[1::2]))
            layers.append((pairs, [rng.uniform(0.0, 2.0 * math.pi) for _ in range(m)]))
        lines = [
            "internal h",
            "external " + " ".join(f"p{k}" for k in range(m)),
            f"statistics {stats}",
        ]
        lines += [f"particle h p{k}" for k in inputs]
        for pairs, phases in layers:
            lines += [f"bs p{a} p{b} p{a} p{b}" for a, b in pairs]
            lines += [f"phase p{k} {v!r}" for k, v in enumerate(phases)]
        lines.append("measure A external " + " ".join(f"bin p{k} = p{k}" for k in range(n)))
        lines.append("measure B external " + " ".join(f"bin p{k} = p{k}" for k in range(n, m)))
        return "\n".join(lines) + "\n", inputs, layers

    def commands(self):
        return [
            (n, stats, *self.circuit(n, stats))
            for n, repeats in self.REPEATS.items()
            for stats in ("boson", "fermion")
            for _ in range(repeats)
        ]

    def _simulate(self, source):
        start = perf_counter_ns()
        state = self.cdl.execute(self.cdl.compile_circuit(self.cdl.parse_source(source)))
        return state, perf_counter_ns() - start

    def warm_up(self):
        for stats in ("boson", "fermion"):
            self._simulate(self.circuit(2, stats)[0])

    def run_op(self, command, tracer):
        n, stats, source, inputs, layers = command
        label = f"N={n} {stats}"
        try:
            state, ns = self._simulate(source)
        except Exception as e:  # a traceback is a failed operation, not a crash
            return Result(label, 0, 1, "failed", f"{type(e).__name__}: {e}")
        probs = {}
        for mono, amp in state.terms.items():
            pattern = tuple(sorted(int(mode.external.name[1:]) for mode in mono.ops()))
            weight = math.prod(math.factorial(occ) for _, occ in mono.entries)
            probs[pattern] = probs.get(pattern, 0.0) + abs(amp) ** 2 * weight
        unitary = oracles.mesh_unitary(2 * n, layers)
        reason = oracles.check_mesh_state(probs, unitary, inputs, stats)
        return Result(label, ns, 1, _status(reason), reason)


# a 3-particle file that `check` accepts but `table` rejects with exit 3
# ("outcome probabilities sum to 0.0"), because completeness counts only
# two-particle outcomes; see ROADMAP item 4
DEFECT_MESSAGE = "outcome probabilities sum to"


class CliSession(Workload):
    """Short ``python -m fockflow.cli`` commands, one subprocess at a time."""

    name = "cli-session"
    EXAMPLES = ("hh_fermion", "hh_boson", "hh_distinguishable", "swap")

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.examples = root / "src" / "fockflow" / "examples"
        self.rng = random.Random(seed)
        self.env = child_env(root)
        self.max_rss_kib = 0
        self.workdir = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=root))
        self.three_particle = []
        for k in range(4):
            path = self.workdir / f"three_{k}.cdl"
            path.write_text(self._three_particle_source())
            self.three_particle.append(path)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _three_particle_source(self):
        rng = self.rng
        stats = rng.choice(("boson", "fermion"))
        lines = ["internal down up", "external L D R U", f"statistics {stats}"]
        for internal, port in rng.sample([(i, p) for i in ("down", "up") for p in "LDRU"], 3):
            lines.append(f"particle {internal} {port}")
        for _ in range(6):
            a, b = rng.sample("LDRU", 2)
            lines.append(f"{rng.choice(('bs', 'hbs'))} {a} {b} {a} {b}")
            port = rng.choice("LDRU")
            lines.append(f"phase {port} {rng.uniform(0.0, 2.0 * math.pi)!r}")
        lines.append("measure A external bin D = D bin L = L")
        lines.append("measure B external bin R = R bin U = U")
        return "\n".join(lines) + "\n"

    def commands(self):
        rng = self.rng
        out = []
        stats, kind, phases = rng.choice(STATS), rng.choice(KINDS), _phases(rng)
        want = oracles.hh_cells(stats, kind, *phases)
        argv = ["table", "hh", "--stats", stats, "--kind", kind, *_phase_flags(phases)]
        out.append(("table hh", argv, lambda r, w=want: oracles.check_table_record(r, w)))

        example, phases = rng.choice(self.EXAMPLES), _phases(rng)
        if example == "swap":
            want = oracles.swap_cells(*phases)
        else:
            want = oracles.hh_cells(example[3:], "path-path", *phases)
        argv = ["table", str(self.examples / f"{example}.cdl"), *_phase_flags(phases)]
        out.append(("table file", argv, lambda r, w=want: oracles.check_table_record(r, w)))

        dials = [rng.uniform(-math.pi, math.pi) for _ in range(4)]
        argv = ["chsh", "hh", "--dials=" + ",".join(repr(d) for d in dials)]
        out.append(("chsh dials", argv, lambda r, d=dials: oracles.check_chsh_dials(r, d)))

        for label, path in (
            ("check bundled", rng.choice(sorted(self.examples.glob("*.cdl")))),
            ("check 3-particle", rng.choice(self.three_particle)),
        ):
            src = path.read_text()
            out.append((label, ["check", str(path)], lambda r, s=src: oracles.check_check_record(r, s)))

        variant, count = rng.choice(("--dofs", "--copies")), rng.randint(1, 20)
        argv = ["signal", variant, str(count)]
        out.append(("signal", argv, lambda r, c=count: oracles.check_signal_record(r, c, None)))

        variant, count, trials = rng.choice(("--dofs", "--copies")), rng.randint(1, 4), 20000
        argv = ["signal", variant, str(count), "--mc", str(trials), "--seed", str(rng.randrange(2**31))]
        out.append(
            ("signal mc", argv, lambda r, c=count, t=trials: oracles.check_signal_record(r, c, t))
        )

        dofs, state = rng.randint(1, 4), rng.choice(sorted(oracles.CLONE_BORN))
        argv = ["cascade", "--dofs", str(dofs), "--state", state]
        out.append(("cascade", argv, lambda r, d=dofs, s=state: oracles.check_cascade_record(r, d, s)))

        out.append(("table 3-particle", ["table", str(rng.choice(self.three_particle))], None))
        return out

    def peak_rss_mb(self) -> float:
        return self.max_rss_kib / 1024.0

    def _run(self, argv, traced: bool):
        """(exit code, stdout, stderr, wall ns) of one command.

        The child is reaped with wait4 for its own peak RSS; output goes
        to files so that neither pipe can fill while we wait.
        """
        if traced:
            cmd = [sys.executable, str(Path(spans.__file__).resolve()), *argv]
        else:
            cmd = [sys.executable, "-m", "fockflow.cli", *argv]
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            start = perf_counter_ns()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            ns = perf_counter_ns() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_rss_kib = max(self.max_rss_kib, usage.ru_maxrss)
        return proc.returncode, out_path.read_text(), err_path.read_text(), ns

    def warm_up(self):
        self._run(["check", str(self.examples / "swap.cdl")], traced=False)

    def run_op(self, command, tracer):
        label, argv, check = command
        code, out, err, ns = self._run([*argv, "--json"], traced=tracer is not None)
        trace = None
        if tracer is not None and spans.MARK in err:
            err, _, payload = err.rpartition(spans.MARK)
            trace = json.loads(payload)["spans"]
        status = None
        try:
            if check is None:
                status, reason = self._defect_check(code, out, err)
            elif code != 0:
                reason = f"exit {code}: {err.strip()[:200]}"
            else:
                reason = check(json.loads(out))
        except MALFORMED as e:
            status, reason = None, f"malformed output: {type(e).__name__}: {e}"
        return Result(label, ns, 1, status or _status(reason), reason, trace)

    @staticmethod
    def _defect_check(code, out, err):
        """The 3-particle table op: passes once it exits 0 with completeness 1."""
        if code == 0:
            comp = json.loads(out)["metadata"]["completeness"]
            if comp is not None and abs(comp - 1.0) <= oracles.TOL_TABLE:
                return "ok", None
            return "failed", f"completeness {comp!r}"
        if code == 3 and DEFECT_MESSAGE in err:
            return "known_defect", err.strip()[:200]
        return "failed", f"exit {code}: {err.strip()[:200]}"


WORKLOADS = {w.name: w for w in (PhaseGrid, ManyParticle, CliSession)}
