"""Replication-report bytes pinned on both sides of the cohort draw's block.

``generate`` draws its uniform streams in blocks of ``cohort._BLOCK``
(2^16) individuals.  The digests below are the SHA-256 of
``simulate SPEC --replications 3 --seed 7 --out FILE`` as written by the
engine that drew each stream in one call and tested every variant through
a validated 2x2 table, so they pin that the blockwise draws and the
count-based tallies reproduce its bytes.  The cohort sizes put 2n just
below, exactly on, and across several blocks, with the group boundary n
inside a block; each spec carries a proxy rule, a noisy covariate with a
negative slope and a noiseless one, and runs with and without the
continuity correction.

Every study here is forced onto forked workers (``forced_workers``): three
replications run one per process, two at the cohort cap one per process, so
the pins also show that the bytes do not depend on the worker count.
"""

import hashlib
import json

import pytest

from riskcounts import cohort
from riskcounts.cli import main
from riskcounts.cohort import MAX_COHORT_SIZE, TRUE_CAUSES
from riskcounts.figures import replay_text

#: 2n = 65,534, 65,536 and 200,006 individuals.
N_PER_GROUP = (32_767, 32_768, 100_003)

DIGESTS = {
    (32767, "exposure-label", True):
        "0df45f338c82b80952f37e8398270c93d69b4e57633a70fd5fb228b1c8d10a12",
    (32767, "exposure-label", False):
        "b6e9acedb64066f9ea7d6951ff7c56ff2077a68fbdf40cd9042c8d2c77cf0657",
    (32767, "latent-factor", True):
        "7397688b8337f7d5bb947f721eb1b7cd866b44da6a7e1fb8e02251d0ef07d081",
    (32767, "latent-factor", False):
        "9ac9c09f90faaff1bee7ad0c3623d80ec46da270b40723e594e190ed492cedb3",
    (32767, "none", True):
        "56e1e5c130466929d043e945f80c4da9b2360519f3c8930521b343606edac72d",
    (32767, "none", False):
        "e39002eb0310cd2b44f07f5829458144672cf8108778e11efc6b7d43af88db26",
    (32768, "exposure-label", True):
        "cfa90913eadfe402ae23fe0a2541e4a68dc5e7728fbe98a4af529d0c9a9db138",
    (32768, "exposure-label", False):
        "4b7a30b0c747bec88565306a566b7c2987de626ba06e1157355c737136e6a4b4",
    (32768, "latent-factor", True):
        "a8ad87990972c1af3ace29b2580a624e5897bc7d8d515482336ea1304daadece",
    (32768, "latent-factor", False):
        "429a71f8117866c983f80f071a9ae2554c8bf76bba7b87e2ac301851850244bd",
    (32768, "none", True):
        "2a17a178b14219881e6673f84577a4de722f49fabc0d499716d7dc038f637ef2",
    (32768, "none", False):
        "703d289b5163cabc982bb4547e1d275e822579544a725b8a04f56a1621aeff65",
    (100003, "exposure-label", True):
        "72294bebc80d871b193ccb35a9cb5b3e969d056e59f183a93ae9fcf1f27773c4",
    (100003, "exposure-label", False):
        "962697278762c374d392c045c238bb3efd74fccdf9a464db3cfa10cb00875fce",
    (100003, "latent-factor", True):
        "16656086d19956eea2e07aa89893ba22e0bfa9d365daf14e2ab885507df362dc",
    (100003, "latent-factor", False):
        "1fb65426f1d1068fc73e540aa36755e61436a498ccb66093fd37f4869d996d07",
    (100003, "none", True):
        "b1071565c044936ac65724c5fd9ec11337b15cc47f7e811e1234afa69a9d3e72",
    (100003, "none", False):
        "104c7db91b618831ff8b11e26e8703a5dd9a5714177522efc5d0bd9a2351540f",
}

#: ``simulate`` of an exposure-label spec at MAX_COHORT_SIZE individuals,
#: ``--replications 2 --seed 7``.
MAX_COHORT_DIGEST = "ffc3f8bb8d093e5610cded4036536f936f258c4ccae69c51eb2a944a23d60409"


@pytest.fixture(autouse=True)
def forced_workers(monkeypatch):
    """Run each study on up to three processes and record its ranges."""
    forked = []
    run = cohort._forked_outcomes
    monkeypatch.setattr(cohort, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(cohort, "_PARALLEL_MIN_INDIVIDUALS", 0)
    monkeypatch.setattr(cohort, "_forked_outcomes",
                        lambda args, ranges: forked.append(ranges) or run(args, ranges))
    return forked


def _full_spec(n_per_group, true_cause):
    return {"schema_version": 1, "causal_spec": {
        "n_per_group": n_per_group, "true_cause": true_cause,
        "baseline_p": 0.02, "effect_p": 0.035, "latent_group_correlation": 0.6,
        "proxy_rule": {"accuracy": 0.85},
        "covariate_rules": [
            {"name": "marker", "intercept": 1.0, "slope": -2.0, "noise_sd": 1.5},
            {"name": "badge", "intercept": 0.0, "slope": 1.0, "noise_sd": 0.0},
        ],
    }}


def _simulate(tmp_path, doc, replications, continuity=True):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "report.csv"
    argv = ["simulate", str(spec), "--replications", str(replications),
            "--seed", "7", "--out", str(out)]
    if not continuity:
        argv.append("--no-continuity")
    assert main(argv) == 0
    return out.read_bytes()


def test_every_combination_is_pinned():
    assert set(DIGESTS) == {
        (n, cause, continuity)
        for n in N_PER_GROUP for cause in TRUE_CAUSES for continuity in (True, False)
    }


@pytest.mark.parametrize("key", sorted(DIGESTS), ids=lambda k: f"{k[0]}-{k[1]}-{k[2]}")
def test_replication_bytes_across_the_block_boundary(key, tmp_path, capsys, forced_workers):
    n, cause, continuity = key
    data = _simulate(tmp_path, _full_spec(n, cause), 3, continuity)
    capsys.readouterr()
    assert hashlib.sha256(data).hexdigest() == DIGESTS[key]
    text = data.decode("utf-8")
    assert replay_text(text) == text
    assert forced_workers == [[(0, 1), (1, 2), (2, 3)]] * 2


def test_replication_bytes_at_max_cohort_size(tmp_path, capsys, forced_workers):
    doc = {"schema_version": 1, "causal_spec": {
        "n_per_group": MAX_COHORT_SIZE // 2, "true_cause": "exposure-label",
        "baseline_p": 0.01, "effect_p": 0.012,
    }}
    data = _simulate(tmp_path, doc, 2)
    capsys.readouterr()
    assert hashlib.sha256(data).hexdigest() == MAX_COHORT_DIGEST
    assert forced_workers == [[(0, 1), (1, 2)]]
