"""The scenario loader against the field-by-field loader it replaced, and
the scenario boundary against edited documents.

A scenario file is the one input a user writes by hand.  Each example takes
the shipped movielens-like file or a small desk document and replaces one
node, at a drawn JSON path, with an arbitrary JSON value (bools, NaN, +-inf,
huge ints, nested lists and objects), or deletes it.  The edited document
must load or be refused with a ``ValidationError``, and ``fedpecd validate``
must exit 0, or exit 2 with exactly one ``error:`` line.

``oracle_from_json_dict`` is ``Scenario.from_json_dict`` as it was with one
type-check helper per kind of field (``_number``, ``_integer``, ``_reals``
over ``_flatten`` and ``_first_non_number``) and a feature-table reader that
parsed every key with ``int()``, building through the live ``Bounds`` and
``Scenario``.  On every edited document the loader must accept as the oracle
does, with the same array bits, sigma and bounds, or raise the same message,
with two differences:

- where a list stands in an array at the depth of a number, the loader
  names it (``thetas[2, 1] = [] is not a number``), while the oracle
  descended into it and refused the array some other way;
- where a feature-table key is not an id written as ``save`` writes it, the
  loader names the key, while the oracle read it with ``int()``: it
  accepted the key, called its id named twice, or could not parse it.

A second strategy respells one arm or context key so that ``int()`` still
reads it (a leading ``0``, ``+`` or space, an underscore, Arabic-Indic
digits) or as ``-1``; the loader must name that key, and ``fedpecd
validate`` must exit 2 with it in one ``error:`` line.
"""

import ast
import contextlib
import functools
import io
import json
import re
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedpecd.cli import main
from fedpecd.errors import ValidationError
from fedpecd.harness import desk_spec, generate_synthetic
from fedpecd.model import Bounds, Scenario

# Derandomized so tier-1 runs the same examples every time; no database.
PROFILE = settings(derandomize=True, deadline=None, database=None)

MOVIELENS = Path(__file__).resolve().parents[1] / "data" / "movielens_like.json"
NAMES = ("desk", "movielens")


@functools.cache
def document(name):
    """The shipped movielens-like file, or a generated 3-agent desk scenario."""
    if name == "movielens":
        return json.loads(MOVIELENS.read_text())
    return json.loads(json.dumps(
        generate_synthetic(desk_spec(m=3), seed=0, variant="hidden").to_json_dict()))


SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
           | st.sampled_from([2.0, -1, 0.5, 2**63, -10**30, 10**400]))
VALUES = st.recursive(
    SCALARS,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=6,
)


@st.composite
def edited(draw, name):
    """Document ``name`` with the node at a drawn path replaced by a drawn
    JSON value, or deleted.  Only the containers on the path are copied;
    the loaders do not write to a document, so the rest is shared."""

    def edit(node):
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        out = node.copy()
        child = node[key]
        # Descend 3 times in 4, so deep leaves are reached; replace 4 times in 5.
        if isinstance(child, (dict, list)) and child and draw(st.integers(0, 3)):
            out[key] = edit(child)
        elif draw(st.integers(0, 4)):
            out[key] = draw(VALUES)
        else:
            del out[key]
        return out

    return edit(document(name))


ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))
# Each spelling but the last is one that int() reads as the same id.
RESPELLINGS = {
    "leading-zero": lambda key: "0" + key,
    "plus": lambda key: "+" + key,
    "space": lambda key: " " + key,
    "underscore": lambda key: "_".join(key) if len(key) > 1 else "0_" + key,
    "arabic-indic": lambda key: key.translate(ARABIC_INDIC),
    "minus-one": lambda key: "-1",
}


@st.composite
def respelled(draw, name):
    """Document ``name`` with one arm key, or one context key of one arm,
    respelled in place, the refusal that names it, and whether int() reads
    the new key as the old id."""
    doc = document(name)
    table = doc["features"]
    arm = draw(st.sampled_from(list(table)))
    how = draw(st.sampled_from(list(RESPELLINGS)))
    level = draw(st.sampled_from(["arm", "context"]))
    old = arm if level == "arm" else draw(st.sampled_from(list(table[arm])))
    new = RESPELLINGS[how](old)

    def rename(keys):
        return {new if k == old else k: v for k, v in keys.items()}

    features = rename(table) if level == "arm" else {**table, arm: rename(table[arm])}
    where = "arm" if level == "arm" else f"arm {arm}: context"
    message = f'{where} key {new!r} is not written as an id ("0", "1", "2", ...)'
    return dict(doc, features=features), message, how != "minus-one"


# The loader as it was: one helper per kind of field, _dense_table reading
# keys with int(), and _dense_mu as it called them.

def _is_real(t):
    return issubclass(t, (int, float)) and not issubclass(t, bool)


def _number(value, what):
    if not _is_real(type(value)):
        raise ValidationError(f"{what} = {value!r} is not a number")
    return float(value)


def _first_non_number(values, at=()):
    if isinstance(values, list):
        for j, v in enumerate(values):
            found = _first_non_number(v, at + (j,))
            if found:
                return found
        return None
    return None if _is_real(type(values)) else (at, values)


def _flatten(values, depth):
    leaves, shape = [values], []
    for _ in range(depth):
        try:
            sizes = set(map(len, leaves))
        except TypeError:
            return None
        if len(sizes) != 1:
            return None
        shape.append(sizes.pop())
        leaves = list(chain.from_iterable(leaves))
    return leaves, shape


def _reals(values, what, depth):
    flat = _flatten(values, depth)
    if flat and all(map(_is_real, set(map(type, flat[0])))):
        return np.array(flat[0], dtype=float).reshape(flat[1])
    found = _first_non_number(values)
    if found:
        at, value = found
        raise ValidationError(f"{what}{list(at) if at else ''} = {value!r} is not a number")
    return np.array(values, dtype=float)


def _integer(value, what):
    if type(value) is not int:
        raise ValidationError(f"{what} = {value!r} is not an integer")
    return value


def _dense_table(table: dict, k: int) -> list:
    """A schema-v1 feature table {arm: {context: phi}} as nested ``(K, C, d)``
    lists; every arm 0..K-1 must hold exactly the context ids 0..C-1, each
    named by one key (``"0"`` and ``"00"`` name one id)."""
    if not isinstance(table, dict):
        raise ValidationError("features is not an object {arm: {context: phi}}")
    rows: dict[int, dict] = {}
    for a_key, per_ctx in table.items():
        a = int(a_key)
        if a in rows:
            raise ValidationError(f"arm {a}: named twice in features, the second time as {a_key!r}")
        if not isinstance(per_ctx, dict):
            raise ValidationError(f"arm {a}: features are not an object {{context: phi}}")
        row = rows[a] = {}
        for c_key, v in per_ctx.items():
            c = int(c_key)
            if c in row:
                raise ValidationError(
                    f"arm {a}: context {c} named twice in features, the second time as {c_key!r}")
            row[c] = v
    # The count first, so a huge declared K builds no list.
    if len(rows) != k or sorted(rows) != list(range(k)):
        raise ValidationError(f"features cover arms {sorted(rows)}, expected 0..{k - 1}")
    # No arm can hold an id at or above the most contexts any arm names; it
    # is refused before anything is sized by it.
    most = max(map(len, rows.values()), default=0)
    for a in range(k):
        c = max(rows[a], default=-1)
        if c >= most:
            raise ValidationError(
                f"arm {a}: context id {c} outside 0..{most - 1}, as no arm names more "
                f"than {most} contexts")
    n_ctx = 1 + max((c for row in rows.values() for c in row), default=-1)
    for a in range(k):
        odd = set(range(n_ctx)) ^ set(rows[a])
        if odd:
            c = min(odd)  # an id outside 0..C-1 can only be negative
            raise ValidationError(f"arm {a}: " + (
                f"context id {c} outside 0..{n_ctx - 1}" if c < 0
                else f"no feature for context {c}"))
    return [[rows[a][c] for c in range(n_ctx)] for a in range(k)]


def _dense_mu(agents, n_ctx):
    sizes = np.array([len(agent["mu"]) for agent in agents], dtype=int)
    owner = np.repeat(np.arange(sizes.size), sizes)
    ids = [c for agent in agents for c, _ in agent["mu"]]
    probs = [p for agent in agents for _, p in agent["mu"]]
    empty = np.flatnonzero(sizes == 0)
    if empty.size:
        raise ValidationError(f"agent {empty[0]}: context distribution has an empty support")
    j = next((j for j, c in enumerate(ids) if type(c) is not int or not 0 <= c < n_ctx), None)
    if j is not None:
        where = f"agent {owner[j]}: context id"
        _integer(ids[j], where)
        raise ValidationError(f"{where} {ids[j]} outside 0..{n_ctx - 1}")
    j = next((j for j, p in enumerate(probs) if not _is_real(type(p))), None)
    if j is not None:
        raise ValidationError(
            f"agent {owner[j]}: probability of context {ids[j]} = {probs[j]!r} is not a number")
    mu = np.zeros((sizes.size, n_ctx))
    mu[owner, ids] = 1.0
    twice = np.flatnonzero(np.count_nonzero(mu, axis=1) != sizes)
    if twice.size:
        raise ValidationError(f"agent {twice[0]}: duplicate context id in support")
    mu[owner, ids] = probs
    return mu


def oracle_from_json_dict(data):
    try:
        bounds = Bounds(
            ell=_number(data["bounds"]["ell"], "bounds.ell"),
            big_l=_number(data["bounds"]["L"], "bounds.L"),
            s=_number(data["bounds"]["s"], "bounds.s"),
        )
        sigma = _number(data.get("sigma", 0.0), "sigma")
        declared = {key: _integer(data[key], key) for key in ("d", "K", "M")}
        features = _reals(_dense_table(data["features"], declared["K"]), "features", 3)
        rewards = _reals(data["thetas"], "thetas", 2)
        mu = _dense_mu(data["agents"], features.shape[1] if features.ndim == 3 else 0)
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed scenario document: {exc}") from exc
    scenario = Scenario(bounds=bounds, rewards=rewards, features=features, mu=mu,
                        sigma=sigma, name=str(data.get("name", "")))
    for key, value in declared.items():
        if value != getattr(scenario, key):
            raise ValidationError(
                f"{key} = {value} disagrees with the arrays, which hold {getattr(scenario, key)}"
            )
    return scenario


def outcome(load, doc):
    """The loaded scenario, or the ValidationError; any other error fails."""
    try:
        return load(doc)
    except ValidationError as exc:
        return exc


# A refusal that names a value in thetas or features by its index.
NAMED = re.compile(r"(thetas|features)\[([\d, ]+)\] = (.*) is not a number")
NUMBER_DEPTH = {"thetas": 2, "features": 3}


def is_named_list(got, want):
    """Whether ``got`` names a list that stands as deep as a number belongs
    in thetas or features, where ``want``, the oracle's refusal, is numpy's
    or a shape's, or names a value inside that list or after it."""
    named = NAMED.fullmatch(str(got))
    if not (named and named[3].startswith("[")
            and len(named[2].split(", ")) == NUMBER_DEPTH[named[1]]):
        return False
    field, at = named[1], [int(j) for j in named[2].split(", ")]
    oracle = NAMED.fullmatch(str(want))
    if oracle:
        return oracle[1] == field and [int(j) for j in oracle[2].split(", ")] >= at
    return str(want).startswith((
        "malformed scenario document: setting an array element with a sequence.",
        f"{field} have shape"))


# A refusal that names a feature-table key, of an arm or of arm A's contexts.
RESPELLED = re.compile(r'(arm|arm (\d+): context) key (.*) is not written as an id '
                       r'\("0", "1", "2", \.\.\.\)')


def is_respelled_key(got, want, doc):
    """Whether ``got`` names a key of ``doc``'s feature table that is not an
    id written as ``save`` writes it, where ``want``, the oracle's outcome,
    read that key with int(): it accepted it, called its id named twice, or
    could not parse it."""
    named = RESPELLED.fullmatch(str(got))
    if not named:
        return False
    key, table = ast.literal_eval(named[3]), doc["features"]
    keys = table if named[2] is None else table[named[2]]
    if key not in keys or (key.isascii() and key.isdigit() and str(int(key)) == key):
        return False
    return isinstance(want, Scenario) or "named twice in features" in str(want) or str(
        want).startswith("malformed scenario document: invalid literal for int() with base 10:")


@pytest.mark.parametrize("name", NAMES)
def test_loader_matches_the_oracle(name):
    """Both accept with the same bits, or both refuse with the same message,
    but for a list where a number belongs and a key not written as an id,
    which only the loader names."""

    @settings(PROFILE, max_examples=200)
    @given(edited(name))
    def check(doc):
        got, want = outcome(Scenario.from_json_dict, doc), outcome(oracle_from_json_dict, doc)
        if isinstance(got, Scenario):
            assert isinstance(want, Scenario), want
            for field in ("features", "rewards", "mu"):
                assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
            assert (got.sigma, got.bounds, got.name) == (want.sigma, want.bounds, want.name)
        elif isinstance(want, Scenario) or str(got) != str(want):
            assert is_named_list(got, want) or is_respelled_key(got, want, doc), (
                str(got), str(want))

    check()


@pytest.mark.parametrize("edit,message", [
    (lambda doc: doc["thetas"][2].__setitem__(1, []), "thetas[2, 1] = [] is not a number"),
    (lambda doc: doc["features"]["1"]["0"].__setitem__(2, [0.5]),
     "features[1, 0, 2] = [0.5] is not a number"),
    (lambda doc: doc["thetas"][0].__setitem__(0, ["x"]), "thetas[0, 0] = ['x'] is not a number"),
])
def test_a_list_where_a_number_belongs_is_named(edit, message):
    """The one difference from the oracle, which reported the first two
    only through numpy and named the string inside the third."""
    doc = json.loads(json.dumps(document("desk")))
    edit(doc)
    with pytest.raises(ValidationError) as got:
        Scenario.from_json_dict(doc)
    assert str(got.value) == message
    assert is_named_list(got.value, outcome(oracle_from_json_dict, doc))


@pytest.mark.parametrize("name", NAMES)
def test_validate_exits_0_or_2_with_one_error_line(name, tmp_path_factory):
    path = tmp_path_factory.mktemp(name) / "scenario.json"

    @settings(PROFILE, max_examples=40)
    @given(edited(name))
    def check(doc):
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["validate", "--scenario", str(path)])
        if rc == 0:
            assert out.getvalue().startswith(f"ok: {path} ") and not err.getvalue()
        else:
            assert rc == 2 and not out.getvalue()
            assert err.getvalue().startswith(f"error: {path}: ")
            assert len(err.getvalue().splitlines()) == 1

    check()


@pytest.mark.parametrize("name", NAMES)
def test_a_respelled_key_is_named(name):
    """The loader names the respelled key; the oracle read every spelling
    but -1 as the id it respells, so it loaded the unedited bits."""
    plain = Scenario.from_json_dict(document(name))

    @settings(PROFILE, max_examples=40)
    @given(respelled(name))
    def check(case):
        doc, message, same_id = case
        with pytest.raises(ValidationError) as got:
            Scenario.from_json_dict(doc)
        assert str(got.value) == message
        if same_id:
            want = oracle_from_json_dict(doc)
            for field in ("features", "rewards", "mu"):
                assert getattr(want, field).tobytes() == getattr(plain, field).tobytes()

    check()


@pytest.mark.parametrize("name", NAMES)
def test_validate_names_a_respelled_key_in_one_error_line(name, tmp_path_factory):
    path = tmp_path_factory.mktemp(name) / "scenario.json"

    @settings(PROFILE, max_examples=20)
    @given(respelled(name))
    def check(case):
        doc, message, _ = case
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["validate", "--scenario", str(path)])
        assert (rc, out.getvalue(), err.getvalue()) == (2, "", f"error: {path}: {message}\n")

    check()
