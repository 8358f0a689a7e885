"""Exemplar lists: a rule's fixed sequence of labeled object sets.

A list holds (by default) 25 sets of one to five objects each; every object
carries the gold label obtained by evaluating the rule with that object as
target.  Generation is seeded and reproducible: equal (concept, vocab,
seed, n_sets) always produce structurally identical lists and byte-
identical persisted files.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
import threading
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, pairwise
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from ..dsl import Concept, Context, DslError, FeatureVocab, Obj, evaluate, parse_concept, print_concept


class LabelSoundnessError(DslError):
    """A persisted gold label disagrees with re-evaluating the rule."""


@dataclass(frozen=True)
class ExemplarSet:
    """One displayed set: its objects and their gold labels."""

    objects: tuple[Obj, ...]
    labels: tuple[bool, ...]

    def __post_init__(self):
        if len(self.objects) != len(self.labels):
            raise DslError("labels must align with objects")

    def context_for(self, index: int) -> Context:
        return Context(self.objects, index)


@dataclass(frozen=True)
class ExemplarList:
    """A rule's sets in presentation order.

    Every consumer reads the list's flat layout, computed once per list and
    kept on it: ``offsets`` (the index of each set's first object, then the
    object count), ``contexts`` (every object's context) and ``gold`` (every
    object's gold label), all in presentation order.  Set ``k``'s objects
    are ``contexts[offsets[k]:offsets[k + 1]]``, and the objects before it
    are the first ``offsets[k]``."""

    rule_id: str
    source: str
    concept: Concept
    vocab: FeatureVocab
    seed: int
    sets: tuple[ExemplarSet, ...]

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        return tuple(accumulate((len(s.objects) for s in self.sets), initial=0))

    @cached_property
    def contexts(self) -> tuple[Context, ...]:
        return tuple(s.context_for(i) for s in self.sets for i in range(len(s.objects)))

    @cached_property
    def gold(self) -> tuple[bool, ...]:
        return tuple(label for s in self.sets for label in s.labels)

    @property
    def n_objects(self) -> int:
        return self.offsets[-1]

    def iter_items(self) -> Iterator[tuple[int, int, Context, bool]]:
        """Yield (set_index, object_index, context, gold label) in
        presentation order; the contexts are the list's own, built once."""
        for set_index, (start, end) in enumerate(pairwise(self.offsets)):
            for object_index, i in enumerate(range(start, end)):
                yield set_index, object_index, self.contexts[i], self.gold[i]


# One labelled object: its context and its gold label.
Observation = tuple[Context, bool]


def evidence_from_list(exemplar_list: ExemplarList, upto_set: int | None = None) -> list[Observation]:
    """A list's labeled objects as presentation-ordered evidence: all of
    them, or those of the sets before ``upto_set`` (none for 0 or less,
    all past the last set)."""
    offsets = exemplar_list.offsets
    end = offsets[-1] if upto_set is None else offsets[max(0, min(upto_set, len(offsets) - 1))]
    return list(zip(exemplar_list.contexts[:end], exemplar_list.gold[:end]))


def generate_list(
    concept: Concept,
    vocab: FeatureVocab,
    seed: int,
    n_sets: int = 25,
    rule_id: str | None = None,
) -> ExemplarList:
    """Sample an exemplar list for ``concept``.

    Set sizes are uniform on 1..5 and objects are sampled uniformly with
    replacement from the object universe, so a 25-set list holds 75
    objects in expectation.
    """
    rng = random.Random(seed)
    n_sizes, n_colors, n_shapes = len(vocab.sizes), len(vocab.colors), len(vocab.shapes)
    sets = []
    for _ in range(n_sets):
        count = rng.randint(1, 5)
        objects = tuple(
            Obj(rng.randrange(n_sizes), rng.randrange(n_colors), rng.randrange(n_shapes))
            for _ in range(count)
        )
        labels = tuple(evaluate(concept, Context(objects, i)) for i in range(count))
        sets.append(ExemplarSet(objects, labels))
    source = print_concept(concept, vocab)
    return ExemplarList(
        rule_id=rule_id if rule_id is not None else source,
        source=source,
        concept=concept,
        vocab=vocab,
        seed=seed,
        sets=tuple(sets),
    )


def _list_document(exemplar_list: ExemplarList) -> dict:
    vocab = exemplar_list.vocab
    return {
        "rule_id": exemplar_list.rule_id,
        "source": exemplar_list.source,
        "vocab": {
            "sizes": list(vocab.sizes),
            "colors": list(vocab.colors),
            "shapes": list(vocab.shapes),
        },
        "seed": exemplar_list.seed,
        "sets": [
            {
                "objects": [
                    [vocab.sizes[o.size], vocab.colors[o.color], vocab.shapes[o.shape]]
                    for o in s.objects
                ],
                "labels": list(s.labels),
            }
            for s in exemplar_list.sets
        ],
    }


def write_atomic(path: str | Path, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a
    partial document.  The file is synced before the rename and its
    directory after, so a crash leaves the old document or the new one.  On
    failure the temp file is removed and the old document is untouched.

    Each call writes its own temp file, named for its process and thread
    and created exclusively, so two writers of one path (two sessions
    sending the same request, or two processes sharing an output
    directory) each rename a whole document of their own: the last rename
    wins.  The file gets the mode ``open`` gives under the umask."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def write_json(path: str | Path, doc) -> None:
    """Write ``doc`` atomically as indented JSON with sorted keys."""
    write_atomic(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_csv(path: str | Path, header: Sequence, rows: Iterable[Sequence], head: str = "") -> None:
    """Write the text ``head``, then ``header`` and ``rows`` as CSV records
    ending in ``\\r\\n``, atomically: every row is formatted before the
    file is touched, so a row that fails leaves the old file as it was."""
    buffer = io.StringIO()
    buffer.write(head)
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    write_atomic(path, buffer.getvalue())


def save_list(exemplar_list: ExemplarList, path: str | Path) -> None:
    write_json(path, _list_document(exemplar_list))


def load_list(path: str | Path) -> ExemplarList:
    """Load a persisted list.

    Every stored gold label is re-derived from the rule; a mismatch raises
    :class:`LabelSoundnessError`.  A list with no sets, or a set with no
    objects, raises :class:`DslError`: nothing downstream can score it.  So
    does a label that is not a JSON boolean, or a seed that is not a JSON
    integer (``"yes"`` or ``0`` would read as a label, ``"7"`` or ``7.9`` as
    a seed).
    """
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not doc["sets"]:
        raise DslError(f"{path}: the list has no sets")
    vocab = FeatureVocab(
        sizes=tuple(doc["vocab"]["sizes"]),
        colors=tuple(doc["vocab"]["colors"]),
        shapes=tuple(doc["vocab"]["shapes"]),
    )
    concept = parse_concept(doc["source"], vocab)
    sets = []
    for entry in doc["sets"]:
        objects = tuple(
            Obj(vocab.index("size", s), vocab.index("color", c), vocab.index("shape", h))
            for s, c, h in entry["objects"]
        )
        if not objects:
            raise DslError(f"{path}: set {len(sets)} has no objects")
        labels = tuple(entry["labels"])
        if any(type(label) is not bool for label in labels):
            raise DslError(f"{path}: set {len(sets)} labels must be JSON booleans, got {labels!r}")
        sets.append(ExemplarSet(objects, labels))
    if type(doc["seed"]) is not int:
        raise DslError(f"{path}: seed must be a JSON integer, got {doc['seed']!r}")
    loaded = ExemplarList(
        rule_id=doc["rule_id"],
        source=doc["source"],
        concept=concept,
        vocab=vocab,
        seed=doc["seed"],
        sets=tuple(sets),
    )
    for set_index, object_index, ctx, label in loaded.iter_items():
        if evaluate(concept, ctx) != label:
            raise LabelSoundnessError(
                f"{path}: stored label at set {set_index}, object {object_index} "
                f"disagrees with the rule"
            )
    return loaded
