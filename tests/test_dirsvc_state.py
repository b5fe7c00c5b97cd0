"""Directory cell records: the shallow ``cell_record`` equals
``dataclasses.asdict`` and round-trips through journal replay and
checkpoints."""

from dataclasses import asdict, fields

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dirsvc.state import (
    AttrCell,
    NameCell,
    SiteState,
    attr_key_for,
    cell_record,
    name_key_for,
)

ints = st.integers(0, 1 << 48)
floats = st.floats(0, 1e9, allow_nan=False)
names = st.text(min_size=1, max_size=12)

attr_cells = st.builds(
    AttrCell, fileid=ints, ftype=st.integers(1, 7), mode=ints, nlink=ints,
    uid=ints, gid=ints, size=ints, used=ints, atime=floats, mtime=floats,
    ctime=floats, flags=ints, home_site=st.integers(0, 63),
    symlink_target=st.text(max_size=20), parent_fileid=ints,
    parent_site=st.integers(0, 63),
)
name_cells = st.builds(
    NameCell, parent_fileid=ints, name=names, target_fileid=ints,
    target_ftype=st.integers(1, 7), target_flags=ints,
    target_site=st.integers(0, 63),
)


def test_cell_fields_are_scalars():
    # cell_record copies shallowly; that equals asdict only while no field
    # holds a container.
    for cls in (AttrCell, NameCell):
        for f in fields(cls):
            assert f.type in ("int", "float", "str"), (cls.__name__, f.name)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(attr_cells, name_cells, ints)
def test_cell_record_equals_asdict(attr, name, new_size):
    assert cell_record(attr) == asdict(attr)
    assert list(cell_record(attr)) == list(asdict(attr))
    assert cell_record(name) == asdict(name)
    assert list(cell_record(name)) == list(asdict(name))
    attr.size = new_size  # mutated cells are journaled again
    assert cell_record(attr) == asdict(attr)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.lists(attr_cells, max_size=5), st.lists(name_cells, max_size=5))
def test_records_replay_and_checkpoint_round_trip(attrs, names_):
    state = SiteState(3)
    records = [state.put_attr_cell(c) for c in attrs]
    records += [state.put_name_cell(c) for c in names_]
    # The record is a copy: later changes to the cell do not reach it.
    for cell in attrs:
        cell.size += 1
    replayed = SiteState(3)
    for record in records:
        replayed.apply_record(record)
    restored = SiteState.from_snapshot(replayed.snapshot(), 3)
    for cell in attrs:
        key = attr_key_for(cell.fileid)
        # Replay gives each key its last journaled value, from before the
        # mutation; the checkpoint of the replayed state keeps it.
        last = [r["cell"] for r in records
                if r["op"] == "put_attr" and r["cell"]["fileid"] == cell.fileid][-1]
        assert asdict(replayed.get_attr_cell(key)) == last
        assert asdict(restored.get_attr_cell(key)) == last
        assert state.get_attr_cell(key).size == last["size"] + 1
    for cell in names_:
        key = name_key_for(cell.parent_fileid, cell.name)
        assert asdict(restored.name_cells[key]) == asdict(state.name_cells[key])
