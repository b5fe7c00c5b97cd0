"""Property test: the running totals kept beside storage-object content.

``ExtentMap`` keeps its stored-byte count and ``StorageObject`` keeps a
block -> position map beside ``block_order``, so the data path never
re-sums extents or rebuilds the map per request.  Random sequences of
writes, truncates, commits, crashes and block allocations must leave both
equal to what a full recount gives, after every operation.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.objects import BLOCK_SIZE, ObjectStore
from repro.util.bytesim import PatternData, RealData
from repro.util.extents import ExtentMap

SPAN = 5 * BLOCK_SIZE  # offsets stay within a few blocks

offsets = st.integers(0, SPAN)
lengths = st.integers(0, 2 * BLOCK_SIZE)

ops = st.one_of(
    st.tuples(st.just("write"), offsets, lengths, st.booleans()),
    st.tuples(st.just("truncate"), offsets),
    st.tuples(st.just("commit"), offsets, st.one_of(st.none(), lengths)),
    st.tuples(st.just("discard")),
    st.tuples(st.just("alloc"), st.integers(0, SPAN // BLOCK_SIZE + 1)),
)


def _data(offset, length):
    # Small writes carry real bytes, large ones stay lazy.
    if length <= 64:
        return RealData(bytes((offset + i) & 0xFF for i in range(length)))
    return PatternData(length, seed=offset)


def _recount(emap: ExtentMap) -> int:
    return sum(data.length for _offset, data in emap.extents())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(ops, max_size=25))
def test_storage_object_totals_match_recount(sequence):
    store = ObjectStore()
    obj = store.get(b"oid", create=True)
    for op in sequence:
        kind = op[0]
        if kind == "write":
            _kind, offset, length, stable = op
            obj.write(offset, _data(offset, length), stable=stable)
        elif kind == "truncate":
            obj.truncate(op[1])
        elif kind == "commit":
            obj.commit(op[1], op[2])
        elif kind == "discard":
            obj.discard_unstable()
        else:
            store.phys_for_block(obj, op[1])
        assert obj.stable.stored_bytes() == _recount(obj.stable)
        assert obj.unstable.stored_bytes() == _recount(obj.unstable)
        assert obj.stored_bytes() == _recount(obj.stable) + _recount(obj.unstable)
        assert obj.block_index == {b: i for i, b in enumerate(obj.block_order)}
        assert sorted(obj.block_order) == sorted(obj.block_phys)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(
    st.one_of(
        st.tuples(st.just("write"), offsets, st.integers(0, 3 * BLOCK_SIZE)),
        st.tuples(st.just("truncate"), offsets),
    ),
    max_size=30,
))
def test_extent_map_stored_bytes_match_recount(sequence):
    emap = ExtentMap()
    for kind, offset, *rest in sequence:
        if kind == "write":
            emap.write(offset, _data(offset, rest[0]))
        else:
            emap.truncate(offset)
        assert emap.stored_bytes() == _recount(emap)
