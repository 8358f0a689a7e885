"""Exemplar list generation and persistence."""

import json

import pytest

from rulelab.catalog import DEFAULT_VOCAB as V
from rulelab.dsl import parse_concept
from rulelab.exemplars import (
    ExemplarSet,
    LabelSoundnessError,
    evidence_from_list,
    generate_list,
    load_list,
    save_list,
)

BLUE = parse_concept("(is-color blue)", V)


def test_labels_match_rule():
    exemplar_list = generate_list(BLUE, V, seed=5)
    blue_index = V.index("color", "blue")
    for _s, _o, ctx, label in exemplar_list.iter_items():
        assert label == (ctx.objects[ctx.target].color == blue_index)


def test_default_25_sets_of_1_to_5():
    exemplar_list = generate_list(BLUE, V, seed=5)
    assert len(exemplar_list.sets) == 25
    assert all(1 <= len(s.objects) <= 5 for s in exemplar_list.sets)


def test_same_seed_reproduces():
    assert generate_list(BLUE, V, seed=9) == generate_list(BLUE, V, seed=9)
    assert generate_list(BLUE, V, seed=9) != generate_list(BLUE, V, seed=10)


def test_mean_total_objects_near_75():
    # Uniform set sizes on {1..5} give 3 objects per set, 75 per 25-set list.
    total = sum(generate_list(BLUE, V, seed=seed).n_objects for seed in range(1000))
    assert abs(total / 1000 - 75.0) < 2.0


def test_label_soundness_on_load(tmp_path):
    exemplar_list = generate_list(BLUE, V, seed=3, rule_id="blue")
    path = tmp_path / "blue.json"
    save_list(exemplar_list, path)
    assert load_list(path) == exemplar_list

    doc = json.loads(path.read_text())
    doc["sets"][0]["labels"][0] = not doc["sets"][0]["labels"][0]
    path.write_text(json.dumps(doc))
    with pytest.raises(LabelSoundnessError):
        load_list(path)


def test_persisted_bytes_are_stable(tmp_path):
    exemplar_list = generate_list(BLUE, V, seed=3, rule_id="blue")
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    save_list(exemplar_list, first)
    save_list(exemplar_list, second)
    assert first.read_bytes() == second.read_bytes()


def test_manual_list_construction_validates_alignment():
    from rulelab.dsl import Obj

    with pytest.raises(Exception):
        ExemplarSet(objects=(Obj(0, 0, 0),), labels=(True, False))


def test_json_writers_keep_the_previous_file_when_replace_fails(tmp_path, monkeypatch):
    import os

    from rulelab.catalog import DEMO_RULES, write_rules_manifest
    from rulelab.learner import default_grammar, save_grammar

    grammar_path, rules_path = tmp_path / "grammar.json", tmp_path / "rules.json"
    for path in (grammar_path, rules_path):
        path.write_text('{"previous": true}\n')

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError):
        save_grammar(default_grammar(V), grammar_path)
    with pytest.raises(OSError):
        write_rules_manifest(list(DEMO_RULES), rules_path)
    assert grammar_path.read_text() == rules_path.read_text() == '{"previous": true}\n'


@pytest.mark.parametrize("failing", ["replace", "fsync"])
def test_write_atomic_removes_its_temp_file_when_it_fails(tmp_path, monkeypatch, failing):
    import os

    from rulelab.exemplars import write_atomic

    target = tmp_path / "a.json"
    target.write_text('{"previous": true}\n')

    def fail(*args):
        raise OSError("disk full")

    monkeypatch.setattr(os, failing, fail)
    with pytest.raises(OSError, match="disk full"):
        write_atomic(target, '{"next": true}\n')
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json"]
    assert target.read_text() == '{"previous": true}\n'


def test_write_atomic_syncs_the_file_then_its_directory(tmp_path, monkeypatch):
    import os
    import stat

    from rulelab.exemplars import write_atomic

    synced, real_fsync, real_replace = [], os.fsync, os.replace

    def fsync(fd):
        synced.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
        real_fsync(fd)

    def replace(src, dst):
        synced.append("replace")
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    write_atomic(tmp_path / "a.json", "{}\n")
    assert synced == ["file", "replace", "dir"]
    assert (tmp_path / "a.json").read_text() == "{}\n"


def test_write_atomic_keeps_two_writers_of_one_path_apart(tmp_path):
    """Two threads write documents of different lengths to one path: every
    call succeeds, the file is one whole document, no temp file is left,
    and the file has the mode the umask gives."""
    import os
    import stat
    import sys
    import threading

    from rulelab.exemplars import write_atomic

    target = tmp_path / "a.json"
    documents = ['{"short": true}\n', '{"long": "' + "x" * 5000 + '"}\n']
    errors = []

    def write(text):
        try:
            for _ in range(100):
                write_atomic(target, text)
        except Exception as error:  # collected: the main thread asserts there are none
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=write, args=(text,)) for text in documents]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert target.read_text() in documents
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json"]
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~umask


def _walked_evidence(exemplar_list, upto_set):
    """The evidence walk ``evidence_from_list`` replaced: every labeled
    object of the sets before ``upto_set``, in presentation order."""
    out = []
    for set_index, exemplar_set in enumerate(exemplar_list.sets):
        if upto_set is not None and set_index >= upto_set:
            break
        out += [(exemplar_set.context_for(i), label) for i, label in enumerate(exemplar_set.labels)]
    return out


def _layout_lists(tmp_path):
    lists = [generate_list(BLUE, V, seed=seed, n_sets=n_sets)
             for seed, n_sets in ((1, 25), (2, 1), (3, 7), (4, 40))]
    save_list(lists[0], tmp_path / "blue.json")
    return lists + [load_list(tmp_path / "blue.json")]


def test_the_layout_agrees_with_the_sets(tmp_path):
    for exemplar_list in _layout_lists(tmp_path):
        sets = exemplar_list.sets
        assert exemplar_list.offsets[0] == 0
        assert [b - a for a, b in zip(exemplar_list.offsets, exemplar_list.offsets[1:])] == [
            len(s.objects) for s in sets
        ]
        assert exemplar_list.n_objects == exemplar_list.offsets[-1] == len(exemplar_list.contexts)
        assert exemplar_list.contexts == tuple(
            s.context_for(i) for s in sets for i in range(len(s.objects))
        )
        assert exemplar_list.gold == tuple(label for s in sets for label in s.labels)
        assert list(exemplar_list.iter_items()) == [
            (k, i, s.context_for(i), label)
            for k, s in enumerate(sets) for i, label in enumerate(s.labels)
        ]
        for k in range(len(sets)):
            start, end = exemplar_list.offsets[k], exemplar_list.offsets[k + 1]
            assert exemplar_list.contexts[start:end] == tuple(
                sets[k].context_for(i) for i in range(len(sets[k].objects))
            )


def test_the_layout_is_computed_once_and_kept():
    exemplar_list = generate_list(BLUE, V, seed=5)
    assert exemplar_list.contexts is exemplar_list.contexts
    assert exemplar_list.offsets is exemplar_list.offsets
    contexts = exemplar_list.contexts
    assert all(ctx is contexts[i] for i, (_s, _o, ctx, _l) in enumerate(exemplar_list.iter_items()))
    assert exemplar_list == generate_list(BLUE, V, seed=5)  # the cache is not a field
    assert hash(exemplar_list) == hash(generate_list(BLUE, V, seed=5))


def test_evidence_is_a_slice_of_the_layout_with_the_walks_result(tmp_path):
    for exemplar_list in _layout_lists(tmp_path):
        n_sets = len(exemplar_list.sets)
        for upto_set in (None, -1, 0, 1, n_sets - 1, n_sets, n_sets + 3):
            assert evidence_from_list(exemplar_list, upto_set) == _walked_evidence(
                exemplar_list, upto_set
            ), upto_set
