#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/test_perfbench.py

They build like run.py does (into $CARGO_TARGET_DIR, default .bench_build)
and use short, fixed-pass runs of the harness.
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.getcwd()
spec = importlib.util.spec_from_file_location(
    "perfbench_run", os.path.join(ROOT, "perfbench", "run.py"))
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)

OUT = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
HARNESS = CLIENT = None
ENV = run.program_env()
REFERENCE = os.path.join("perfbench", "reference")

# Count metrics that must repeat exactly (the program is deterministic on
# one thread; only times may move between runs).
COUNT_METRICS = ("ctmc.solves", "ctmc.gs_iterations", "ctmc.accepted.level_qbd",
                 "ctmc.accepted.ncd_ad", "ctmc.accepted.gauss_seidel",
                 "ctmc.accepted.other", "linalg.gs_flops")


def setUpModule():
    global HARNESS, CLIENT
    os.makedirs(OUT, exist_ok=True)
    bin_dir = run.build(ROOT, OUT)
    HARNESS = os.path.join(bin_dir, "perfbench_harness")
    CLIENT = os.path.join(bin_dir, "tags_client")


def harness(workload, *extra, passes=1, trace=0, reference=REFERENCE):
    cmd = [HARNESS, "--workload", workload, "--seed", "5", "--seconds", "0",
           "--passes", str(passes), "--trace", str(trace), "--reference", reference]
    proc = subprocess.run(cmd + list(extra), env=ENV, capture_output=True, text=True,
                          timeout=170)
    if proc.returncode != 0:
        raise AssertionError("harness failed: %s" % proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def counts(raw, nnz_of, pass_index):
    c = raw["pass_counts"][pass_index]
    layer = run.solver_counts(c["counters"], c["solves"], nnz_of)
    out = {k: layer[k] for k in COUNT_METRICS}
    out.update({"approx.scan_solves": c["scan_solves"], "pepa.states": c["pepa_states"],
                "core.sweep_points": c["sweep_points"]})
    return out


class CountsRepeat(unittest.TestCase):
    """Every count metric is identical across two runs, and between the
    untraced and the traced pass of a run."""

    def check(self, workload):
        traced = harness(workload, passes=2, trace=1)  # pass 0 untraced, pass 1 traced
        self.assertFalse(traced["passes"][0]["traced"])
        self.assertTrue(traced["passes"][1]["traced"])
        nnz_of = {n: nnz for n, nnz in traced["structures"]}
        untraced = harness(workload)
        first = counts(untraced, nnz_of, 0)
        self.assertEqual(first, counts(harness(workload), nnz_of, 0))
        self.assertEqual(first, counts(traced, nnz_of, 0))
        self.assertEqual(first, counts(traced, nnz_of, 1))
        self.assertGreater(first["ctmc.solves"], 0)
        self.assertGreater(first["linalg.gs_flops"], 0)
        for raw in (untraced, traced):
            self.assertEqual(raw["failed"], 0, raw["failures"])
        # The harness's spans cover the traced campaign.
        p = traced["passes"][1]
        covered = run.union_length([(s, e) for _, s, e in p["spans"]]) * 1e-9
        self.assertGreaterEqual(covered / p["wall_s"], 0.9)

    def test_paper_figures(self):
        self.check("paper_figures")

    def test_fast_paths(self):
        self.check("fast_paths")


def edited_reference(name, key, column, edit):
    """A copy of the reference directory with one cell of `name` edited."""
    ref = os.path.join(OUT, "test", "reference")
    shutil.rmtree(ref, ignore_errors=True)
    shutil.copytree(REFERENCE, ref)
    path = os.path.join(ref, name)
    with open(path) as f:
        lines = f.read().splitlines()
    row = next(i for i, l in enumerate(lines) if l.startswith(key + ","))
    cells = lines[row].split(",")
    cells[column] = edit(cells[column])
    lines[row] = ",".join(cells)
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    return ref


class WrongReferenceFails(unittest.TestCase):
    def test_paper_reference_value(self):
        # fig06 at t = 50: the total queue length 0.93519 becomes 0.95.
        ref = edited_reference("fig06.csv", "50", 1, lambda cell: "0.95")
        raw = harness("paper_figures", reference=ref)
        self.assertEqual(raw["failed"], 1, raw["failures"])
        self.assertIn("fig06 row 8 tags_EN_total", raw["failures"][0])

    def test_fast_paths_reference_value(self):
        # The deep chain's throughput off by 1e-4 relative.
        ref = edited_reference("fast_paths.csv", "tags_k256_2", 5,
                               lambda cell: repr(float(cell) * (1 + 1e-4)))
        raw = harness("fast_paths", reference=ref)
        self.assertEqual(raw["failed"], 1, raw["failures"])
        self.assertIn("tags_k256_2[0] throughput", raw["failures"][0])

    def test_fast_paths_small_measure(self):
        # The rare-timeout chain's mean_q2 (2.1e-9) off by 1e-4 relative:
        # small measures are held to the relative bound too.
        ref = edited_reference("fast_paths.csv", "tags_sq_t0.3", 4,
                               lambda cell: repr(float(cell) * (1 + 1e-4)))
        raw = harness("fast_paths", reference=ref)
        self.assertEqual(raw["failed"], 1, raw["failures"])
        self.assertIn("tags_sq_t0.3[0] mean_q2", raw["failures"][0])

    def test_served_answer(self):
        line = ('{"op":"solve","id":"r0","model":"tags","params":'
                '{"lambda":5,"mu":10,"k1":10,"k2":10,"n":6,"t":40}}')
        key = run.scenario_key(line)
        ref = run.oneshot_reference(CLIENT, [line], ENV)[key]
        reply = '{"id":"r0","ok":true,"op":"solve","cached":false,"warm":true,' + ref
        script = [("cold", line)]
        self.assertEqual(run.check_answers(script, [reply], {key: ref}, {})[1], 0)
        wrong = ref.replace('"mean_q1":0.', '"mean_q1":1.')
        self.assertNotEqual(wrong, ref)
        self.assertEqual(run.check_answers(script, [reply], {key: wrong}, {})[1], 1)
        # A loss rate of 3.8e-9 that is 10% off fails.
        res = json.loads("{" + ref)["result"]
        loss = res["metrics"]["loss2_rate"]
        res["metrics"]["loss2_rate"] = loss * 1.1
        wrong = '"result":' + json.dumps(res, separators=(",", ":")) + "}"
        self.assertLess(loss * 0.1, 1e-6)
        self.assertEqual(run.check_answers(script, [reply], {key: wrong}, {})[1], 1)
        # A probe that was answered instead of shed is a failure too.
        self.assertEqual(run.check_answers([("probe", line)], [reply], {key: ref}, {})[1], 1)


class OutputContract(unittest.TestCase):
    """Short end-to-end runs print exactly the metrics BENCHMARK.json names,
    with their units; the benchmark alone, without the sources, fails."""

    def run_py(self, cwd, workload, trace):
        return subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
             "--seconds", "1", "--trace", str(trace)],
            cwd=cwd, env=dict(os.environ, CARGO_TARGET_DIR=OUT), capture_output=True,
            text=True, timeout=180)

    def test_metrics_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        for workload in run.WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                proc = self.run_py(ROOT, workload, trace)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], proc.stderr)
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                want = {m["name"]: m["unit"] for m in spec[key]}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want, (workload, trace))
                if trace == 0:
                    for name, m in result["metrics"].items():
                        self.assertGreater(m["value"], 0, (workload, name))

    def test_fails_without_the_sources(self):
        bare = os.path.join(OUT, "test", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"))
        proc = self.run_py(bare, "paper_figures", 0)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)

    def test_wrong_value_exits_nonzero(self):
        # A checkout whose reference has one wrong published value: the
        # run still prints its result, with "correct": false, and exits 1.
        tree = os.path.join(OUT, "test", "edited")
        shutil.rmtree(tree, ignore_errors=True)
        os.makedirs(tree)
        for name in ("src", "tools"):
            os.symlink(os.path.join(ROOT, name), os.path.join(tree, name))
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(tree, "perfbench"))
        shutil.rmtree(os.path.join(tree, "perfbench", "reference"))
        shutil.copytree(edited_reference("fig06.csv", "50", 1, lambda cell: "0.95"),
                        os.path.join(tree, "perfbench", "reference"))
        proc = self.run_py(tree, "paper_figures", 0)
        self.assertEqual(proc.returncode, 1, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)


class Inputs(unittest.TestCase):
    def test_vendored_references_match_results(self):
        for name in ("fig06", "fig08", "fig09", "fig10"):
            committed = os.path.join(ROOT, "results", name + ".csv")
            if not os.path.exists(committed):
                continue
            with open(committed) as a, open(os.path.join(REFERENCE, name + ".csv")) as b:
                self.assertEqual(a.read(), b.read(), name)

    def test_serve_script_is_a_function_of_the_seed(self):
        self.assertEqual(run.make_scripts(7), run.make_scripts(7))
        self.assertNotEqual(run.make_scripts(7), run.make_scripts(8))
        # Every seed asks for the same amount of each kind of work.
        for seed in (7, 8):
            preseed, scripts = run.make_scripts(seed)
            self.assertEqual(len(scripts), len(run.SCAN_CHAINS))
            for script in scripts:
                kinds = [k for k, _ in script]
                self.assertEqual(kinds.count("cold"), 1)
                self.assertEqual(kinds.count("probe"), run.PROBES)
                self.assertEqual(kinds.count("rebind"),
                                 run.REFINE * (len(run.PUBLISHED_T) - 1) - 1)
                # Cached requests ask only for answered scenarios.
                answered = {run.scenario_key(l) for l in preseed}
                for kind, line in script:
                    if kind == "cached":
                        self.assertIn(run.scenario_key(line), answered)
                    elif kind != "probe":
                        answered.add(run.scenario_key(line))


if __name__ == "__main__":
    unittest.main(verbosity=2)
