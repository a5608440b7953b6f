"""Self-tests of the benchmark: seeded plain-data inputs, oracles that can
fail, traced answers equal to untraced ones, the layer bypasses, compare
verdicts and the result format.

    python3 -m pytest benchmarks -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import masure  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
from compare import verdict  # noqa: E402
from layertrace import LayerTracer  # noqa: E402
from masure import cone, tree  # noqa: E402
from reference import CHECKSUM, NOMINAL_UNIT_S, Reference, kernel_unit  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _plain(x) -> bool:
    if isinstance(x, tuple):
        return all(_plain(y) for y in x)
    return isinstance(x, (str, int, Fraction))


def _sample(name: str, count: int, seed: int = 2) -> list:
    """A prefix of the workload without the rank-3 prenilpotent pairs, which
    take most of a second each."""
    queries = WORKLOADS[name].generate(seed, 3 * count)
    return [q for q in queries
            if not (q.kind == "prenilpotent" and q.key in ("affine_A2", "hyperbolic"))][:count]


def input_hash(queries) -> str:
    return run.InputLog(queries).record()["input_hash"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_seed_fixes_the_plain_data_inputs(name):
    gen = WORKLOADS[name].generate
    first = gen(5, 120)
    assert input_hash(first) == input_hash(gen(5, 120)) != input_hash(gen(6, 120))
    assert all(_plain(q.args) for q in first)


def test_every_block_holds_the_stated_mix():
    tree = WORKLOADS["tree"].generate(9, 200)
    kinds, keys = Counter(q.kind for q in tree), Counter(q.key for q in tree)
    assert kinds["ball"] == 20 and kinds["triple"] == 20 and kinds["act"] == 40
    assert (keys["F2(t)"], keys["F3(t)"], keys["Q3"]) == (80, 60, 60)
    radii = Counter((q.key, q.args[1]) for q in tree if q.kind == "ball")
    assert max(radii.values()) - min(radii.values()) <= 1


# ---------------------------------------------------------------------------
# the oracles reject wrong answers

def _corrupt(q, ans):
    """A plausible wrong answer of the same shape."""
    k = q.kind
    if k == "dist":
        return ans + 1
    if k == "triple":
        return ans[0], ans[1] + 1
    if k == "act":  # one step up from the right image
        g, v, gv = ans
        return g, v, tree.make_point(gv.config, gv.x + 1, gv.tail)
    if k == "retract":
        return ans[0], dataclasses.replace(ans[1], dominance=False)
    if k == "ball":
        return ans[:-1] + ans[:1]
    if k == "geodesic":
        return ans[0][::-1], ans[1][::-1], ans[2][::-1]
    if k == "weyl":
        return ans[0], ans[1][:-1]
    if k == "roots":
        return dataclasses.replace(ans, roots=ans.roots[:-1])
    if k == "cone":
        if isinstance(ans, cone.InCone):
            return dataclasses.replace(ans, steps=ans.steps + 1)
        return cone.InCone(None, (), 0)
    if k == "prenilpotent":
        a, b, v, interval = ans
        if isinstance(v, cone.Prenilpotent):
            return a, b, cone.Prenilpotent(v.to_negative, v.to_positive), interval
        return a, b, cone.Prenilpotent(None, None), [a.root]
    if k == "fresh":
        cls, real = ans
        others = [c for c in type(cls) if c != cls]
        return others[0], real
    if k == "gm":
        return {**ans, (): Fraction(7)}
    if k == "params":
        params, back = ans
        return (params[0] + 1,) + params[1:], back
    if k == "factorize":
        m, member, (low, diag, up) = ans
        return m, member, (low, diag, low)
    raise AssertionError(k)


@pytest.mark.parametrize("name", WORKLOADS)
def test_oracles_reject_a_corrupted_answer_of_every_kind(name):
    wl = WORKLOADS[name]
    fixed = wl.fixed()
    firsts = {}
    for q in _sample(name, 80):
        firsts.setdefault(q.kind, q)
    for q in firsts.values():
        ans = wl.run(q, fixed)
        assert oracles.check(name, q, ans, fixed), q
        assert not run._checked(name, q, _corrupt(q, ans), fixed), q


def test_a_corrupted_answer_raises_failed_ratio():
    queries = WORKLOADS["tree"].generate(3, 400)
    fixed = WORKLOADS["tree"].fixed()
    target = next(i for i, q in enumerate(queries) if q.kind == "dist")
    clean = run.closed_loop("tree", queries, fixed, 0.3)
    assert clean["attempted"] > target and clean["failed_ratio"] == 0
    stats = run.closed_loop("tree", queries, fixed, 0.3,
                            corrupt=lambda i, ans: ans + 1 if i == target else ans)
    assert stats["attempted"] > target
    assert stats["failed"] == 1 and stats["failed_ratio"] > 0


# ---------------------------------------------------------------------------
# tracing changes no answer, restores every attribute, and counts exactly

def _snapshot() -> dict:
    """Identity of every attribute of every masure module and class."""
    out = {}
    for modname, mod in sys.modules.items():
        if modname == "masure" or modname.startswith("masure."):
            for attr, obj in vars(mod).items():
                out[(modname, attr)] = obj
                if isinstance(obj, type) and obj.__module__ == modname:
                    for cattr, cobj in vars(obj).items():
                        out[(modname, attr, cattr)] = cobj
    return out


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_answers_equal_untraced_and_counts_repeat(name):
    queries = _sample(name, 40)
    fixed = WORKLOADS[name].fixed()
    plain, _ = run.answer_all(name, queries, fixed)
    before = _snapshot()
    runs = []
    for _ in range(2):
        with LayerTracer() as tracer:
            answers, _ = run.answer_all(name, queries, fixed, tracer)
            patched = tracer.patched()
        assert patched
        assert all(vars(owner)[attr] is original for owner, attr, original in patched)
        after = _snapshot()
        assert after.keys() == before.keys()
        assert all(after[k] is before[k] for k in before)
        runs.append((answers, tracer))
    assert [repr(a) for a in plain] == [repr(a) for a in runs[0][0]] \
        == [repr(a) for a in runs[1][0]]
    assert runs[0][1].exact_counts() == runs[1][1].exact_counts()
    m = runs[0][1].metrics()
    if name == "tree":
        assert m["loop.calls"] == 0 and m["fields.laurent.ops"] > 0 and m["fields.padic.ops"] > 0
    if name == "coxeter":
        assert m["fields.laurent.ops"] == m["fields.padic.ops"] == m["loop.calls"] == 0
        assert m["weyl.calls"] > 0
    if name == "series":
        assert m["fields.laurent.ops"] == m["fields.padic.ops"] == m["weyl.calls"] == 0
        assert m["fields.calls"] == runs[0][1].calls["fields.is_prime"] > 0


def test_the_reference_kernel_runs_no_library_code():
    with LayerTracer() as tracer:
        ref = Reference()
        value, seconds, factor = ref.around(lambda: 7)
    assert value == 7 and seconds >= 0 and factor > 0 and len(ref.times) == 4
    assert kernel_unit() == CHECKSUM
    assert not any(tracer.exact_counts().values())


def test_reference_factors_come_from_the_units_near_each_span():
    ref = Reference()
    ref.starts.extend([0.0, 1.0, 2.0])
    ref.times.extend([2 * NOMINAL_UNIT_S, NOMINAL_UNIT_S, 4 * NOMINAL_UNIT_S])
    near_second, between, after_all = ref.factors([0.95, 1.5, 5.0], [0.01, 0.01, 0.01])
    assert near_second == pytest.approx(1.0)
    assert between == pytest.approx(2 / 5)  # no unit within the margin: the two nearest
    assert after_all == pytest.approx(1 / 4)


def test_aliases_are_wrapped():
    with LayerTracer():
        from masure import cone as c, lattices as lat, weyl as w

        assert c.all_elements_up_to_length is w.all_elements_up_to_length
        assert hasattr(c.all_elements_up_to_length, "__wrapped__")
        assert hasattr(lat.tail_reduce, "__wrapped__")
    assert not hasattr(masure.cone.all_elements_up_to_length, "__wrapped__")


# ---------------------------------------------------------------------------
# compare verdicts

def test_compare_verdicts():
    def judge(parent, change, better):
        return verdict(parent, change, list(zip(parent, change)), better, 0.1)

    parent = [100.0 + i for i in range(10)]
    faster = [x * 1.3 for x in parent]
    slower = [x * 0.7 for x in parent]
    assert judge(parent, faster, "higher") == "improved"
    assert judge(parent, parent[::-1], "higher") == "unchanged"
    assert judge(parent, slower, "higher") == "worse"
    assert judge(parent, slower, "lower") == "improved"
    assert judge([50.0, 150.0] * 5, parent, "higher") == "unresolved"
    assert judge(parent[:3], faster[:3], "higher") == "unresolved"
    assert judge(parent[:1], parent[:1], "higher") == "unchanged"


def test_compare_calls_a_change_that_fails_more_queries_worse(tmp_path, capsys):
    for side, scale, failed in (("parent", 1.0, 0), ("change", 2.0, 1)):
        (tmp_path / side).mkdir()
        for seed in range(10):
            record = {"provenance": {"workload": "tree", "seed": seed, "trace": 0},
                      "result": {"failed": failed if seed == 3 else 0, "metrics": {
                          "throughput_qps": {"value": scale * (100 + seed)}}}}
            (tmp_path / side / f"{seed}.json").write_text(json.dumps(record))
    run.main(["--compare", str(tmp_path / "parent"), str(tmp_path / "change")])
    out = capsys.readouterr().out
    assert "fails 1 queries, the parent 0" in out
    assert out.splitlines()[-1].split()[-1] == "worse"


# ---------------------------------------------------------------------------
# the command

@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_the_result_and_records_provenance(tmp_path, capsys, trace):
    assert run.main(["--workload", "series", "--seed", "4", "--seconds", "0.5",
                     "--trace", str(trace), "--out", str(tmp_path)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == names
    record = json.loads((tmp_path / f"series-seed4-trace{trace}.json").read_text())
    assert {"python", "platform", "nproc", "commit", "seed"} <= set(record["provenance"])
    assert {"input_hash", "kind_shares", "key_shares", "repeated_datum_share"} <= set(record)
    if not trace:
        assert record["failed_ratio"] == 0 and set(record["key_shares"]) == {"F2", "F5", "Q"}
        assert all(m["value"] > 0 for m in result["metrics"].values())
        # the hash covers exactly the queries run, which the seed fixes
        ran = WORKLOADS["series"].generate(4, result["attempted"])
        assert record["queries_run"] == result["attempted"] == len(ran)
        assert record["input_hash"] == input_hash(ran)


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "tree",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
