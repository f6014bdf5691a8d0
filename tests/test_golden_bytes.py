"""Byte-golden CLI corpus: a fixed set of invocations must keep its stdout.

The digests pin every output byte, so a refactor or speed-up of the Born
kernel, the sign tables, the sampler or the renderers that changes any
reported digit fails here.  Sampled studies report correlations computed from integer counts, so
their bytes move only if a count moves.  To add an entry, run it through
``cli.main`` and take the sha256 of its stdout; existing entries are never
re-recorded to make a change pass.
"""

import hashlib

import pytest

from hyperbell import cli, lhv, model, simlab

CORPUS = {
    "simulate-table": (
        ["simulate", "--events", "2000", "--seed", "0"],
        "4158972785abede731e298f0014ef2c2a65e625c23dab4b2bf9ca35f68c4b4a1",
    ),
    "simulate-csv": (
        ["simulate", "--events", "2000", "--seed", "0", "--format", "csv"],
        "10b527377e8ab4d306d85cc3b80ca923c8d4ff2d4c8c0843a8a83aa52d8e0b9f",
    ),
    "simulate-json": (
        ["simulate", "--events", "2000", "--seed", "0", "--format", "json"],
        "ad0db543393141b7bd846d0e8e6166cc19e3dadbc002d519b0b44a760a2e4ff3",
    ),
    "simulate-dephasing": (
        ["simulate", "--events", "2000", "--seed", "7", "--noise", "dephasing",
         "--theta", "0.5", "--phi", "pi/3", "--v-pi", "0.85", "--v-k", "0.95"],
        "4a0e7ab85f08a36622f0abafdc575e9922fa0b504ace391696ecf0dbbd42ea91",
    ),
    "simulate-dephasing-json": (
        ["simulate", "--events", "3000", "--seed", "11", "--noise", "dephasing",
         "--theta", "-2.1", "--phi", "0.25pi", "--v-pi", "0.97", "--v-k", "0.81",
         "--format", "json"],
        "b5f1e2c9d5f6b0c6df27de50ed32f55bbb27b8b55a49dfe4ad635d2abe2489c7",
    ),
    "simulate-none-csv": (
        ["simulate", "--events", "2000", "--seed", "5", "--noise", "none",
         "--theta", "2.9", "--format", "csv"],
        "5cc24a85af8a3a08a90b81c6dac970bd810e88953f22135d5366fb462d2a8c34",
    ),
    "assumptions-white": (
        ["assumptions", "--events", "2000", "--seed", "3", "--noise", "white", "--v", "0.8"],
        "95bb1c72abcde9ddf3aa5b9538c20af7c9bd5e34ca18dd91d58ae71d83c4136a",
    ),
    "assumptions-white-csv": (
        ["assumptions", "--events", "2000", "--seed", "3", "--noise", "white",
         "--v-pi", "0.93", "--v-k", "0.88", "--phi", "1.2", "--format", "csv"],
        "8bff9745e321b9e6a16d6c87e12651ead145165edd29ff67abe3ae02244c046c",
    ),
    "ideal-phase": (
        ["ideal", "--theta", "pi/2", "--phi", "1.0"],
        "e91e5352b7ad70e96623e2ba878376051fc063472cdd9926cfb5ad316781ae8a",
    ),
    # Full float repr of beta_pi/beta_k, not the table's 6 decimals.
    "ideal-phase-json": (
        ["ideal", "--theta", "0.7", "--phi", "-1.3", "--format", "json"],
        "dec0d126b19968fe55a39efed1eaa39d0b198ac246e51aa720c68bcf03bada2c",
    ),
    # Both classes at N = 4: pins the witness token order of each class.
    "bounds-dof4": (
        ["bounds", "--dof", "4"],
        "a6c2bbe4c6dca34e7b46e1c8a5692027a29d3c4830dad4308309e1df768d5b74",
    ),
    "bounds-dof3-unrestricted-json": (
        ["bounds", "--dof", "3", "--class", "unrestricted", "--format", "json"],
        "75d959e8a27dddb1d401c7a38b4ccc3628a8b3abad6c403cfe978fb9a730dbd6",
    ),
    "scaling-dof4-json": (
        ["scaling", "--dof", "4", "--format", "json"],
        "096158b9ca22ed6665d454c580305004b481dd33550cc30316665767aec887b4",
    ),
    # Bounds and scaling at the other DOF counts and formats: pin the
    # witness tokens of a single factor and of the 2- and 3-fold products.
    "bounds-dof1": (
        ["bounds", "--dof", "1"],
        "7f559cb55127c7a960b889a3fbf25e4ec3f182aee774b31f14f389d7d9f5db74",
    ),
    "bounds-dof2-csv": (
        ["bounds", "--dof", "2", "--format", "csv"],
        "9ccaf3e647f318c2f465c03926ccaf4fabb7b83196fb924de594e7ae1d19bc62",
    ),
    "bounds-dof3-factorizable-json": (
        ["bounds", "--dof", "3", "--class", "factorizable", "--format", "json"],
        "823fa13a9c7234a9d8384f7d87d139ccca6935abf5cea91207d22ca18ff7c47c",
    ),
    "scaling-dof3": (
        ["scaling", "--dof", "3"],
        "9a65f67340cad960decb03f7176b6cb9c16f6a855b780c46ea9b33290c4ef6cd",
    ),
    "scaling-dof3-csv": (
        ["scaling", "--dof", "3", "--format", "csv"],
        "6e9cf1c35c18d0e801bac2354475fd13e5a506e8e9a5043cee007d6ebd918c07",
    ),
    # Rendering paths not pinned above: a one-class bounds table, the
    # scaling table with its analytic row, a noise-free simulate table, an
    # assumptions JSON document and the ideal CSV.
    "bounds-dof2-unrestricted": (
        ["bounds", "--dof", "2", "--class", "unrestricted"],
        "bd65abc1d47746b0ed28409bb3022a89458cc8c3cb00cf20c9adf532b64ed9d8",
    ),
    "scaling-dof4": (
        ["scaling", "--dof", "4"],
        "a6b56abdcdef59e0d189408bb6885e37b2e7eb67192618c0c8de3eefe95d4f11",
    ),
    "simulate-none": (
        ["simulate", "--events", "2000", "--seed", "5", "--noise", "none", "--theta", "2.9"],
        "7b312ca248ac2e2cfa69b171b3ef70a066a0f8583ab7b2303452afce343afa12",
    ),
    "assumptions-json": (
        ["assumptions", "--events", "2000", "--seed", "3", "--format", "json"],
        "e8568738a3c1cc558fc5dba842d1a030b669017e4b2b128c555e85e702688e99",
    ),
    # An analytic column of exact zeros: B_pi b_pi prints 0.000000, whatever
    # the sign of the zero its summation leaves.
    "assumptions-zero-analytic": (
        ["assumptions", "--events", "2000", "--theta", "0", "--phi", "0", "--noise", "none"],
        "f82bb5577df8b9d68b92f98bdc4672ad97a967653a51cbd5139fb3c46192137b",
    ),
    "ideal-csv": (
        ["ideal", "--format", "csv"],
        "45143d35798edaeed8b6af1431a55bd77656ba8eadcbe1c2d07deb02246c6fab",
    ),
    # JSON configs whose values the run derives: the unit visibilities of a
    # noise-free run, the v shorthand expanded, and the noise-free ideal.
    "simulate-none-json": (
        ["simulate", "--events", "2000", "--seed", "5", "--noise", "none", "--format", "json"],
        "ce9907067e23a3c2b0428f6442f67b9cbeec71311ac55f94afc5a286961285bb",
    ),
    "assumptions-v-json": (
        ["assumptions", "--events", "2000", "--seed", "3", "--v", "0.8", "--format", "json"],
        "a045df26654769b7cd4c70f06aaa8c7aabcac199e17887aa50228050d88beea6",
    ),
    "ideal-none-json": (
        ["ideal", "--noise", "none", "--format", "json"],
        "e8ba494a9e78aa9945a4782abc56f1892dcf3c91bbb58f8c18c6b7e6966c6daa",
    ),
    # The ideal study at the other DOF counts: rows per factor label, the
    # product, the radii and the bound 2^N.
    "ideal-dof1": (
        ["ideal", "--dof", "1"],
        "84849e72a45c4e08e772390c5b177b96ae9393052d7986c0133121e5b82c0170",
    ),
    "ideal-dof1-json": (
        ["ideal", "--dof", "1", "--format", "json"],
        "7aa96e9ca3d2885d96b09c515896379aabbdbf034a404be83c3251e417686e51",
    ),
    "ideal-dof3": (
        ["ideal", "--dof", "3"],
        "da61ce5a9381caa0aeffa47bd60d22c35f9ca0ab22c9cc785b483cba22be14f2",
    ),
    "ideal-dof3-json": (
        ["ideal", "--dof", "3", "--format", "json"],
        "b78e5884a0246aab4c0b9039b1e68a2baecd28dca009ec9b22401417c0b8d361",
    ),
    "ideal-dof4": (
        ["ideal", "--dof", "4"],
        "f78141b4d699f1eb2fa93757a105153cd15dfe7caba7b4c7cd7ac3b2ebd0d398",
    ),
    "ideal-dof4-json": (
        ["ideal", "--dof", "4", "--format", "json"],
        "4c2b49f0439f8288ae26da4f457fbe4b17aa60cb8be0e9bcd5f0d769669c3ff4",
    ),
}


def _digest_cases():
    """Each entry once; a ``bounds`` entry on a cold bound-search cache, under
    its own name, and again on a warm one."""
    for name in sorted(CORPUS):
        yield pytest.param(name, "cold" if name.startswith("bounds") else None, id=name)
        if name.startswith("bounds"):
            yield pytest.param(name, "warm", id=f"{name}-warm")


@pytest.mark.parametrize("name,cache", _digest_cases())
def test_stdout_digest(name, cache, capsys):
    argv, digest = CORPUS[name]
    if cache == "cold":
        lhv._search.cache_clear()
    elif cache == "warm":  # a first run in this process fills the cache
        assert cli.main(argv) == 0
        capsys.readouterr()
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# Library runs at the DOF counts the CLI cannot reach, pinned as the sha256 of
# ``_library_text``: every record's label, E, std_err and event count, and
# each assumption cell's setting and context labels.  (study, N): (events,
# seed, digest) on ``model.hyper_state(0.7, -1.3, N)`` under dephasing
# (v_pi, v_k) = (0.87, 0.93).
LIBRARY = {
    ("run", 1): (2000, 11, "fe54a8df301a0270148cc00847b7af163e9966936684083d741b4f94e98247c0"),
    ("run", 3): (2000, 12, "148dd9bc42c71ca73646f342f67c11e1b13c9de18bcdf8d35359186d5d930b77"),
    ("run", 4): (2000, 13, "d538fd8483dc72c2d5eae425a3082792974c43c4ab560d863c398b5336a42daf"),
    ("assumptions", 1): (
        2000, 21, "2181a75b1de109bff731ea6c731075462072b113f51901a0f1b9542d64e54f76"
    ),
    ("assumptions", 3): (
        2000, 22, "d9e327abd06a9b38f42932e0368c01ee50ef89f13a1ccd05d31150162a83cf63"
    ),
    ("assumptions", 4): (
        2000, 23, "48fd2908bad5bec436d0b40a58180815b6c224ca93e9db106d162703adbef5bf"
    ),
}


def _library_text(study, n, events, seed):
    noise = model.NoiseModel(model.NOISE_DEPHASING, 0.87, 0.93)
    state = model.apply_noise(model.hyper_state(0.7, -1.3, n), noise)
    lines = []
    if study == "run":
        result = simlab.run_simulated_experiment(state, events, seed)
        records = result.joint_records
        lines += [repr(rep) for rep in (*result.chsh, result.beta)]
        report = result.assumptions
    else:
        records, report = (), simlab.assumption_test(state, events, seed)
    lines += [repr(record) for record in records]
    for row in report.rows:
        for cell in row.cells:
            lines.append(repr((*cell.labels, cell.context_label, cell.record)))
    return "\n".join(lines)


@pytest.mark.parametrize("study,n", sorted(LIBRARY))
def test_library_digest(study, n):
    events, seed, digest = LIBRARY[study, n]
    text = _library_text(study, n, events, seed)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
