/**
 * @file
 * Unit tests for the hardware merge tree: sortedness, stability,
 * end-of-line propagation, seamless back-to-back rounds, FIFO
 * back-pressure and ring wrap-around, across tree sizes (parameterized),
 * plus per-cycle digests that pin the tree's timing model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.hh"
#include "menda/merge_tree.hh"

using namespace menda;
using namespace menda::core;

namespace
{

PuConfig
smallConfig(unsigned leaves)
{
    PuConfig config;
    config.leaves = leaves;
    return config;
}

/** One sorted input stream: (col ascending, fixed row). */
struct TestStream
{
    Index row;
    std::vector<Index> cols;
};

class MergeTreeSizes : public ::testing::TestWithParam<unsigned>
{
};

} // namespace

TEST_P(MergeTreeSizes, MergesSortedStreamsByColumn)
{
    std::vector<TestStream> streams;
    Rng rng(42);
    MergeTree probe(smallConfig(GetParam()), MergeKey::Column);
    MergeTree &tree = probe; // sized like the parameterized tree
    std::vector<std::pair<Index, Index>> expect; // (col, row)
    for (unsigned s = 0; s < tree.streamSlots(); ++s) {
        TestStream stream;
        stream.row = s;
        Index col = 0;
        const unsigned len = static_cast<unsigned>(rng.below(6));
        for (unsigned i = 0; i < len; ++i) {
            col += 1 + static_cast<Index>(rng.below(10));
            stream.cols.push_back(col);
            expect.emplace_back(col, s);
        }
        streams.push_back(stream);
    }
    std::stable_sort(expect.begin(), expect.end(),
                     [](auto a, auto b) { return a.first < b.first; });

    MergeTree tree2(smallConfig(GetParam()), MergeKey::Column);
    std::vector<Packet> out = [&] {
        std::vector<std::size_t> cursor(tree2.streamSlots(), 0);
        std::vector<Packet> collected;
        std::uint64_t guard = 0;
        while (tree2.roundsCompleted() == 0 && ++guard < 1000000u) {
            for (unsigned s = 0; s < tree2.streamSlots(); ++s) {
                if (!tree2.canPush(s))
                    continue;
                const TestStream &stream = streams[s];
                if (stream.cols.empty()) {
                    if (cursor[s] == 0) {
                        tree2.push(s, Packet::endOfLine());
                        cursor[s] = 1;
                    }
                } else if (cursor[s] < stream.cols.size()) {
                    const bool last = cursor[s] + 1 == stream.cols.size();
                    tree2.push(s, Packet::data(stream.row,
                                               stream.cols[cursor[s]],
                                               1.0f, last));
                    ++cursor[s];
                }
            }
            if (tree2.canPop())
                collected.push_back(tree2.pop());
            tree2.tick();
        }
        return collected;
    }();

    std::vector<std::pair<Index, Index>> got;
    for (const Packet &p : out)
        if (p.valid)
            got.emplace_back(p.col, p.row);
    ASSERT_EQ(got.size(), expect.size());
    EXPECT_EQ(got, expect) << "merged output must be (col, row) sorted "
                              "with stable row order";
    ASSERT_FALSE(out.empty());
    EXPECT_TRUE(out.back().eol) << "last packet must carry end-of-line";
    for (std::size_t i = 0; i + 1 < out.size(); ++i)
        EXPECT_FALSE(out[i].eol);
}

TEST_P(MergeTreeSizes, EmptyRoundEmitsPureEol)
{
    MergeTree tree(smallConfig(GetParam()), MergeKey::Column);
    std::vector<TestStream> streams(tree.streamSlots());
    for (unsigned s = 0; s < tree.streamSlots(); ++s)
        streams[s].row = s;

    std::vector<std::size_t> cursor(tree.streamSlots(), 0);
    std::uint64_t guard = 0;
    std::vector<Packet> out;
    while (tree.roundsCompleted() == 0) {
        ASSERT_LT(++guard, 100000u);
        for (unsigned s = 0; s < tree.streamSlots(); ++s) {
            if (tree.canPush(s) && cursor[s] == 0) {
                tree.push(s, Packet::endOfLine());
                cursor[s] = 1;
            }
        }
        if (tree.canPop())
            out.push_back(tree.pop());
        tree.tick();
    }
    ASSERT_EQ(out.size(), 1u);
    EXPECT_FALSE(out[0].valid);
    EXPECT_TRUE(out[0].eol);
    EXPECT_TRUE(tree.drained());
}

TEST_P(MergeTreeSizes, BackToBackRoundsStaySeparated)
{
    // Two rounds pushed back-to-back: round 1 data enters the leaves
    // right behind round 0's EOL; outputs must not interleave.
    MergeTree tree(smallConfig(GetParam()), MergeKey::Column);
    const unsigned slots = tree.streamSlots();
    std::vector<std::vector<Packet>> feed(slots);
    for (unsigned s = 0; s < slots; ++s) {
        // Round 0: single element with col >= slots; round 1: col < slots.
        feed[s].push_back(Packet::data(s, slots + s, 1.0f, true));
        feed[s].push_back(Packet::data(s, s, 2.0f, true));
    }
    std::vector<std::size_t> cursor(slots, 0);
    std::vector<Packet> out;
    std::uint64_t guard = 0;
    while (tree.roundsCompleted() < 2) {
        ASSERT_LT(++guard, 1000000u);
        for (unsigned s = 0; s < slots; ++s)
            if (cursor[s] < feed[s].size() && tree.canPush(s))
                tree.push(s, feed[s][cursor[s]++]);
        if (tree.canPop())
            out.push_back(tree.pop());
        tree.tick();
    }
    // First `slots` packets belong to round 0 (cols >= slots); the next
    // `slots` to round 1 (cols < slots).
    ASSERT_EQ(out.size(), 2 * slots);
    for (unsigned i = 0; i < slots; ++i) {
        EXPECT_GE(out[i].col, slots) << "round 0 leaked round 1 data";
        EXPECT_LT(out[slots + i].col, slots);
    }
    EXPECT_TRUE(out[slots - 1].eol);
    EXPECT_TRUE(out[2 * slots - 1].eol);
    EXPECT_TRUE(tree.drained());
}

TEST_P(MergeTreeSizes, ThroughputIsOnePopPerCycleWhenSaturated)
{
    // With all leaves fed eagerly, the root must emit one packet per
    // cycle after the pipeline fills (the design goal of Sec. 3.2).
    MergeTree tree(smallConfig(GetParam()), MergeKey::Column);
    const unsigned slots = tree.streamSlots();
    const unsigned per_stream = 64;
    std::vector<std::size_t> sent(slots, 0);
    std::uint64_t cycles = 0, popped = 0;
    while (tree.roundsCompleted() == 0) {
        for (unsigned s = 0; s < slots; ++s) {
            if (sent[s] < per_stream && tree.canPush(s)) {
                const bool last = sent[s] + 1 == per_stream;
                tree.push(s, Packet::data(
                                  s, static_cast<Index>(sent[s] * slots + s),
                                  1.0f, last));
                ++sent[s];
            }
        }
        if (tree.canPop()) {
            if (tree.pop().valid)
                ++popped;
        }
        tree.tick();
        ++cycles;
        ASSERT_LT(cycles, 1000000u);
    }
    const std::uint64_t total = static_cast<std::uint64_t>(slots) *
                                per_stream;
    EXPECT_EQ(popped, total);
    // Pipeline fill costs about levels() cycles; allow small slack.
    EXPECT_LE(cycles, total + tree.levels() + 8);
}

INSTANTIATE_TEST_SUITE_P(TreeSizes, MergeTreeSizes,
                         ::testing::Values(2u, 4u, 8u, 16u, 64u, 256u,
                                           1024u));

TEST(MergeTree, RowKeyMergesByRow)
{
    PuConfig config = smallConfig(4);
    MergeTree tree(config, MergeKey::Row);
    // Streams sorted by row (SpMV order).
    std::vector<std::vector<Packet>> feed = {
        {Packet::data(2, 0, 1.0f, false), Packet::data(9, 0, 1.0f, true)},
        {Packet::data(1, 1, 1.0f, true)},
        {Packet::data(5, 2, 1.0f, true)},
        {Packet::data(3, 3, 1.0f, true)},
    };
    std::vector<std::size_t> cursor(4, 0);
    std::vector<Index> rows;
    std::uint64_t guard = 0;
    while (tree.roundsCompleted() == 0) {
        ASSERT_LT(++guard, 100000u);
        for (unsigned s = 0; s < 4; ++s)
            if (cursor[s] < feed[s].size() && tree.canPush(s))
                tree.push(s, feed[s][cursor[s]++]);
        if (tree.canPop()) {
            Packet p = tree.pop();
            if (p.valid)
                rows.push_back(p.row);
        }
        tree.tick();
    }
    EXPECT_EQ(rows, (std::vector<Index>{1, 2, 3, 5, 9}));
}

TEST(MergeTree, RejectsBadLeafCounts)
{
    PuConfig config;
    config.leaves = 3;
    EXPECT_THROW(MergeTree(config, MergeKey::Column), std::runtime_error);
    config.leaves = 0;
    EXPECT_THROW(MergeTree(config, MergeKey::Column), std::runtime_error);
    config.leaves = 1;
    EXPECT_THROW(MergeTree(config, MergeKey::Column), std::runtime_error);
}

TEST(MergeTree, RejectsZeroFifoEntries)
{
    PuConfig config = smallConfig(4);
    config.fifoEntries = 0;
    EXPECT_THROW(MergeTree(config, MergeKey::Column), std::runtime_error);
    config.fifoEntries = 256;
    EXPECT_THROW(MergeTree(config, MergeKey::Column), std::runtime_error);
}

TEST(MergeTree, OverflowAndUnderflowAreBugs)
{
    PuConfig config = smallConfig(2);
    config.fifoEntries = 1;
    MergeTree tree(config, MergeKey::Column);
    EXPECT_THROW(tree.pop(), std::runtime_error);
    tree.push(0, Packet::data(0, 1, 1.0f, true));
    EXPECT_FALSE(tree.canPush(0));
    EXPECT_THROW(tree.push(0, Packet::data(0, 2, 1.0f, true)),
                 std::runtime_error);
}

TEST(MergeTree, ThreeEntryFifosWrapAroundManyTimes)
{
    // Two long interleaved streams through 3-entry FIFOs: the consumer
    // stalls every third cycle, so every FIFO fills up and its ring
    // wraps hundreds of times. The output must stay in merge order.
    PuConfig config = smallConfig(4);
    config.fifoEntries = 3;
    MergeTree tree(config, MergeKey::Column);
    for (unsigned i = 0; i < 3; ++i) {
        ASSERT_TRUE(tree.canPush(0)) << "slot holds 3 packets";
        tree.push(0, Packet::data(0, i * 4, 1.0f, false));
    }
    EXPECT_FALSE(tree.canPush(0)) << "slot holds only 3 packets";

    const unsigned per_stream = 1000;
    std::vector<unsigned> sent(tree.streamSlots(), 0);
    sent[0] = 3;
    std::vector<Index> cols;
    bool saw_full = false;
    std::uint64_t cycle = 0;
    while (tree.roundsCompleted() == 0) {
        ASSERT_LT(++cycle, 100000u);
        for (unsigned s = 0; s < tree.streamSlots(); ++s) {
            if (sent[s] == per_stream)
                continue;
            if (!tree.canPush(s)) {
                saw_full = true;
                continue;
            }
            const bool last = sent[s] + 1 == per_stream;
            tree.push(s, Packet::data(s, sent[s] * 4 + s, 1.0f, last));
            ++sent[s];
        }
        if (tree.canPop() && cycle % 3 != 0) {
            Packet p = tree.pop();
            ASSERT_TRUE(p.valid);
            cols.push_back(p.col);
        }
        tree.tick();
    }
    EXPECT_TRUE(saw_full);
    ASSERT_EQ(cols.size(), 4u * per_stream);
    for (std::size_t i = 0; i < cols.size(); ++i)
        ASSERT_EQ(cols[i], i) << "out of order at " << i;
    EXPECT_TRUE(tree.drained());
}

class MergeTreeFuzz : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(MergeTreeFuzz, RandomStallsNeverCorruptTheMerge)
{
    // Property: regardless of when producers push and the consumer pops
    // (random stalls on both sides), every round's output is the sorted
    // multiset union of its inputs with exactly one trailing EOL.
    Rng rng(0xabc000 + GetParam());
    PuConfig config;
    config.leaves = 8u << rng.below(3); // 8/16/32
    config.fifoEntries = 2 + rng.below(2);
    MergeTree tree(config, MergeKey::Column);
    const unsigned slots = tree.streamSlots();
    const unsigned rounds = 3;

    // Pre-generate random sorted streams per slot per round.
    std::vector<std::vector<std::vector<Index>>> streams(
        rounds, std::vector<std::vector<Index>>(slots));
    std::vector<std::vector<std::pair<Index, Index>>> expect(rounds);
    for (unsigned r = 0; r < rounds; ++r) {
        for (unsigned s = 0; s < slots; ++s) {
            Index col = 0;
            const unsigned len = static_cast<unsigned>(rng.below(7));
            for (unsigned i = 0; i < len; ++i) {
                col += 1 + static_cast<Index>(rng.below(5));
                streams[r][s].push_back(col);
                expect[r].emplace_back(col, s);
            }
        }
        std::stable_sort(expect[r].begin(), expect[r].end(),
                         [](auto a, auto b) { return a.first < b.first; });
    }

    std::vector<unsigned> round_of(slots, 0);
    std::vector<std::size_t> cursor(slots, 0);
    std::vector<std::vector<std::pair<Index, Index>>> got(rounds);
    unsigned rounds_done = 0;
    std::uint64_t guard = 0;
    while (rounds_done < rounds) {
        ASSERT_LT(++guard, 2000000u) << "merge did not converge";
        for (unsigned s = 0; s < slots; ++s) {
            if (round_of[s] >= rounds || !tree.canPush(s))
                continue;
            if (rng.below(3) == 0)
                continue; // random producer stall
            const auto &stream = streams[round_of[s]][s];
            if (stream.empty()) {
                tree.push(s, Packet::endOfLine());
                ++round_of[s];
                cursor[s] = 0;
            } else {
                const bool last = cursor[s] + 1 == stream.size();
                tree.push(s, Packet::data(s, stream[cursor[s]], 1.0f,
                                          last));
                if (++cursor[s] == stream.size()) {
                    ++round_of[s];
                    cursor[s] = 0;
                }
            }
        }
        if (tree.canPop() && rng.below(4) != 0) { // random consumer stall
            Packet p = tree.pop();
            if (p.valid)
                got[rounds_done].emplace_back(p.col, p.row);
            if (p.eol)
                ++rounds_done;
        }
        tree.tick();
    }
    for (unsigned r = 0; r < rounds; ++r)
        EXPECT_EQ(got[r], expect[r]) << "round " << r;
    EXPECT_TRUE(tree.drained());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergeTreeFuzz, ::testing::Range(0u, 8u));

namespace
{

/** FNV-1a over the raw bytes of @p value. */
template <typename T>
void
fnvMix(std::uint64_t &hash, const T &value)
{
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char byte : bytes) {
        hash ^= byte;
        hash *= 0x100000001b3ull;
    }
}

void
fnvMixPacket(std::uint64_t &hash, const Packet &p)
{
    fnvMix(hash, p.row);
    fnvMix(hash, p.col);
    fnvMix(hash, p.val);
    fnvMix(hash, static_cast<std::uint8_t>(p.valid));
    fnvMix(hash, static_cast<std::uint8_t>(p.eol));
}

using DigestShape = std::tuple<unsigned, unsigned, MergeKey>;

class MergeTreeDigest : public ::testing::TestWithParam<DigestShape>
{
};

/**
 * Cycle-by-cycle digests of the tree driven by
 * MergeTreeDigest.CycleBehaviourIsPinned, one per (leaves, fifoEntries,
 * key). They pin the exact timing of the model: every popped packet,
 * the freed-slot list of every tick (in order) and the per-cycle
 * occupancy. A change to any of them is a change to the timing model.
 */
struct PinnedDigest
{
    unsigned leaves;
    unsigned fifoEntries;
    MergeKey key;
    std::uint64_t digest;
};

const PinnedDigest kPinnedDigests[] = {
    {2, 2, MergeKey::Column, 0xe493d797393e2dbeull},
    {2, 2, MergeKey::Row, 0xe46efe38d51599e8ull},
    {2, 2, MergeKey::RowCol, 0xbee34d0ef3f61eabull},
    {2, 3, MergeKey::Column, 0xa0fa9cbc8803162cull},
    {2, 3, MergeKey::Row, 0xddeb75b98314c28dull},
    {2, 3, MergeKey::RowCol, 0xb9cc1aad8721aefcull},
    {2, 4, MergeKey::Column, 0xa38b9405a2f9e79full},
    {2, 4, MergeKey::Row, 0x3926933a769b3059ull},
    {2, 4, MergeKey::RowCol, 0xc2c2fc0ba54ce4c5ull},
    {16, 2, MergeKey::Column, 0xe5f236d7ab4068d0ull},
    {16, 2, MergeKey::Row, 0x5f6b20d612dbc15dull},
    {16, 2, MergeKey::RowCol, 0x9a8db51227d3282dull},
    {16, 3, MergeKey::Column, 0xae5952aec5c27368ull},
    {16, 3, MergeKey::Row, 0x6edc391c27e57a7aull},
    {16, 3, MergeKey::RowCol, 0x5ffb5d767650012full},
    {16, 4, MergeKey::Column, 0x8a80b20846c55ed2ull},
    {16, 4, MergeKey::Row, 0x045a16e45d26129full},
    {16, 4, MergeKey::RowCol, 0x97f2acbd9b9d2984ull},
    {256, 2, MergeKey::Column, 0x9203b8c08c5f7da9ull},
    {256, 2, MergeKey::Row, 0x0849eb9ff51d9d46ull},
    {256, 2, MergeKey::RowCol, 0xa92827e554a96be5ull},
    {256, 3, MergeKey::Column, 0xdc6a750ee418af63ull},
    {256, 3, MergeKey::Row, 0x2b021cf9080853deull},
    {256, 3, MergeKey::RowCol, 0x1b612482d55a2ba5ull},
    {256, 4, MergeKey::Column, 0xb31f7e9f82896422ull},
    {256, 4, MergeKey::Row, 0xe0aad0e86fb0104dull},
    {256, 4, MergeKey::RowCol, 0xb55ed4af17118845ull},
    {1024, 2, MergeKey::Column, 0x139c7478b3e09f41ull},
    {1024, 2, MergeKey::Row, 0xc310f3ac41ccc33full},
    {1024, 2, MergeKey::RowCol, 0x1d65991d5eef1599ull},
    {1024, 3, MergeKey::Column, 0x544a5f19d5f1ceb1ull},
    {1024, 3, MergeKey::Row, 0xaa747db6da52810dull},
    {1024, 3, MergeKey::RowCol, 0x786e8a507b24104cull},
    {1024, 4, MergeKey::Column, 0xf645c249d6aed5aaull},
    {1024, 4, MergeKey::Row, 0xf1c29b4847a86465ull},
    {1024, 4, MergeKey::RowCol, 0x7f22c904180dc79aull},
};

std::string
digestShapeName(const ::testing::TestParamInfo<DigestShape> &info)
{
    const auto [leaves, fifo, key] = info.param;
    const char *key_name = key == MergeKey::Column ? "Column"
                           : key == MergeKey::Row  ? "Row"
                                                   : "RowCol";
    return "L" + std::to_string(leaves) + "_F" + std::to_string(fifo) +
           "_" + key_name;
}

} // namespace

TEST_P(MergeTreeDigest, CycleBehaviourIsPinned)
{
    const auto [leaves, fifo, key] = GetParam();
    PuConfig config;
    config.leaves = leaves;
    config.fifoEntries = fifo;
    MergeTree tree(config, key);
    const unsigned slots = tree.streamSlots();
    const unsigned rounds = 3;
    Rng rng(0xd16e57ull ^ (std::uint64_t{leaves} << 8) ^
            (std::uint64_t{fifo} << 4) ^ static_cast<std::uint64_t>(key));

    // Sorted streams per (round, slot) under the merge key, with ties;
    // an empty stream is sent as a pure end-of-line token.
    std::vector<std::vector<std::vector<Packet>>> feed(
        slots, std::vector<std::vector<Packet>>(rounds));
    for (unsigned s = 0; s < slots; ++s) {
        for (unsigned r = 0; r < rounds; ++r) {
            const unsigned len = static_cast<unsigned>(rng.below(6));
            std::uint32_t k = 0;
            for (unsigned i = 0; i < len; ++i) {
                k += static_cast<std::uint32_t>(rng.below(3));
                const Index other = static_cast<Index>(rng.below(1u << 20));
                const Value val = static_cast<Value>(rng.below(1000));
                const bool last = i + 1 == len;
                Packet p = key == MergeKey::Column
                               ? Packet::data(other, k, val, last)
                           : key == MergeKey::Row
                               ? Packet::data(k, other, val, last)
                               : Packet::data(k >> 2, k & 3u, val, last);
                feed[s][r].push_back(p);
            }
            if (len == 0)
                feed[s][r].push_back(Packet::endOfLine());
        }
    }

    std::vector<unsigned> round_of(slots, 0);
    std::vector<std::size_t> cursor(slots, 0);
    std::uint64_t hash = 0xcbf29ce484222325ull;
    std::uint64_t guard = 0;
    while (tree.roundsCompleted() < rounds) {
        ASSERT_LT(++guard, 1000000u) << "merge did not converge";
        for (unsigned s = 0; s < slots; ++s) {
            if (round_of[s] >= rounds || !tree.canPush(s))
                continue;
            if (rng.below(3) == 0)
                continue; // producer stall
            const auto &stream = feed[s][round_of[s]];
            tree.push(s, stream[cursor[s]]);
            if (++cursor[s] == stream.size()) {
                ++round_of[s];
                cursor[s] = 0;
            }
        }
        const bool popped = tree.canPop() && rng.below(4) != 0;
        fnvMix(hash, static_cast<std::uint8_t>(popped));
        if (popped)
            fnvMixPacket(hash, tree.pop());
        tree.tick();
        const std::vector<unsigned> &freed = tree.freedSlots();
        fnvMix(hash, static_cast<std::uint64_t>(freed.size()));
        for (unsigned slot : freed)
            fnvMix(hash, slot);
        fnvMix(hash, tree.occupancy());
    }
    EXPECT_TRUE(tree.drained());

    const PinnedDigest *pinned = nullptr;
    for (const PinnedDigest &d : kPinnedDigests)
        if (d.leaves == leaves && d.fifoEntries == fifo && d.key == key)
            pinned = &d;
    ASSERT_NE(pinned, nullptr)
        << "no pinned digest for this shape; got 0x" << std::hex << hash;
    EXPECT_EQ(hash, pinned->digest)
        << "cycle behaviour changed: got 0x" << std::hex << hash;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MergeTreeDigest,
    ::testing::Combine(::testing::Values(2u, 16u, 256u, 1024u),
                       ::testing::Values(2u, 3u, 4u),
                       ::testing::Values(MergeKey::Column, MergeKey::Row,
                                         MergeKey::RowCol)),
    digestShapeName);
