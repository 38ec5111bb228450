#include "minidb/table.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.h"

namespace sqloop::minidb {
namespace {

Schema MakeSchema() {
  return Schema({{"id", ValueType::kInt64},
                 {"score", ValueType::kDouble},
                 {"label", ValueType::kText}},
                /*primary_key_index=*/0);
}

Row MakeRow(int64_t id, double score, const std::string& label) {
  return {Value(id), Value(score), Value(label)};
}

TEST(Table, InsertAndLookup) {
  Table t("t", MakeSchema());
  t.Insert(MakeRow(1, 0.5, "a"));
  t.Insert(MakeRow(2, 1.5, "b"));
  EXPECT_EQ(t.live_row_count(), 2u);
  EXPECT_EQ(t.FindByPrimaryKey(Value(int64_t{2})), 1);
  EXPECT_EQ(t.FindByPrimaryKey(Value(int64_t{9})), -1);
}

TEST(Table, DuplicatePrimaryKeyRejected) {
  Table t("t", MakeSchema());
  t.Insert(MakeRow(1, 0.5, "a"));
  EXPECT_THROW(t.Insert(MakeRow(1, 9.0, "dup")), ExecutionError);
}

TEST(Table, NullPrimaryKeyRejected) {
  Table t("t", MakeSchema());
  EXPECT_THROW(t.Insert({Value::Null(), Value(0.0), Value(std::string("x"))}),
               ExecutionError);
}

TEST(Table, InsertCoercesTypes) {
  Table t("t", MakeSchema());
  // int into double column, double-with-integral-value into int column.
  t.Insert({Value(3.0), Value(int64_t{2}), Value(std::string("x"))});
  const Row& row = t.At(0);
  EXPECT_TRUE(row[0].is_int());
  EXPECT_EQ(row[0].as_int(), 3);
  EXPECT_TRUE(row[1].is_double());
  EXPECT_DOUBLE_EQ(row[1].as_double(), 2.0);
}

TEST(Table, NonIntegralDoubleIntoIntColumnRejected) {
  Table t("t", MakeSchema());
  EXPECT_THROW(t.Insert({Value(1.5), Value(0.0), Value(std::string("x"))}),
               ExecutionError);
}

TEST(Table, UpdateKeepsPkIndexInSync) {
  Table t("t", MakeSchema());
  t.Insert(MakeRow(1, 0.5, "a"));
  t.Update(0, MakeRow(7, 0.5, "a"));
  EXPECT_EQ(t.FindByPrimaryKey(Value(int64_t{1})), -1);
  EXPECT_EQ(t.FindByPrimaryKey(Value(int64_t{7})), 0);
}

TEST(Table, UpdateToExistingPkRejected) {
  Table t("t", MakeSchema());
  t.Insert(MakeRow(1, 0.5, "a"));
  t.Insert(MakeRow(2, 1.5, "b"));
  EXPECT_THROW(t.Update(0, MakeRow(2, 9.0, "clash")), ExecutionError);
}

TEST(Table, DeleteAndTombstones) {
  Table t("t", MakeSchema());
  t.Insert(MakeRow(1, 0.5, "a"));
  t.Insert(MakeRow(2, 1.5, "b"));
  t.Delete(0);
  EXPECT_EQ(t.live_row_count(), 1u);
  EXPECT_FALSE(t.IsLive(0));
  EXPECT_TRUE(t.IsLive(1));
  EXPECT_EQ(t.FindByPrimaryKey(Value(int64_t{1})), -1);
  t.Delete(0);  // double delete is a no-op
  EXPECT_EQ(t.live_row_count(), 1u);
}

TEST(Table, SecondaryIndexLookup) {
  Table t("t", MakeSchema());
  t.Insert(MakeRow(1, 0.5, "x"));
  t.Insert(MakeRow(2, 0.5, "y"));
  t.Insert(MakeRow(3, 1.5, "x"));
  t.CreateIndex("idx_label", "label");
  EXPECT_TRUE(t.HasIndexOn("label"));
  const auto hits = t.IndexLookup("label", Value(std::string("x")));
  EXPECT_EQ(hits.size(), 2u);
  EXPECT_TRUE(t.IndexLookup("label", Value(std::string("z"))).empty());
}

TEST(Table, IndexMaintainedAcrossMutations) {
  Table t("t", MakeSchema());
  t.CreateIndex("idx_label", "label");
  t.Insert(MakeRow(1, 0.5, "x"));
  t.Insert(MakeRow(2, 0.5, "x"));
  t.Update(0, MakeRow(1, 0.5, "y"));
  EXPECT_EQ(t.IndexLookup("label", Value(std::string("x"))).size(), 1u);
  EXPECT_EQ(t.IndexLookup("label", Value(std::string("y"))).size(), 1u);
  t.Delete(1);
  EXPECT_TRUE(t.IndexLookup("label", Value(std::string("x"))).empty());
}

TEST(Table, PrimaryKeyCountsAsIndex) {
  Table t("t", MakeSchema());
  t.Insert(MakeRow(5, 0.0, "a"));
  EXPECT_TRUE(t.HasIndexOn("id"));
  const auto hits = t.IndexLookup("id", Value(int64_t{5}));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 0u);
}

TEST(Table, DuplicateIndexNameRejected) {
  Table t("t", MakeSchema());
  t.CreateIndex("idx", "label");
  EXPECT_THROW(t.CreateIndex("idx", "score"), ExecutionError);
}

TEST(Table, DropIndex) {
  Table t("t", MakeSchema());
  t.CreateIndex("idx", "label");
  EXPECT_TRUE(t.DropIndex("idx"));
  EXPECT_FALSE(t.DropIndex("idx"));
  EXPECT_FALSE(t.HasIndexOn("label"));
}

TEST(Table, SnapshotAndRestore) {
  Table t("t", MakeSchema());
  t.Insert(MakeRow(1, 0.5, "a"));
  t.Insert(MakeRow(2, 1.5, "b"));
  const auto snapshot = t.SnapshotRows();
  t.Update(0, MakeRow(1, 99.0, "changed"));
  t.Delete(1);
  t.Insert(MakeRow(3, 3.0, "new"));
  t.RestoreRows(snapshot);
  EXPECT_EQ(t.live_row_count(), 2u);
  EXPECT_GE(t.FindByPrimaryKey(Value(int64_t{1})), 0);
  EXPECT_GE(t.FindByPrimaryKey(Value(int64_t{2})), 0);
  EXPECT_EQ(t.FindByPrimaryKey(Value(int64_t{3})), -1);
}

TEST(Table, ClearResetsEverything) {
  Table t("t", MakeSchema());
  t.CreateIndex("idx", "label");
  t.Insert(MakeRow(1, 0.5, "a"));
  t.Clear();
  EXPECT_EQ(t.live_row_count(), 0u);
  EXPECT_EQ(t.FindByPrimaryKey(Value(int64_t{1})), -1);
  EXPECT_TRUE(t.IndexLookup("label", Value(std::string("a"))).empty());
  // Table stays usable after Clear.
  t.Insert(MakeRow(1, 0.5, "a"));
  EXPECT_EQ(t.live_row_count(), 1u);
}

TEST(Table, NoPrimaryKeyTableAllowsDuplicates) {
  Table t("t", Schema({{"v", ValueType::kInt64}}, /*primary_key_index=*/-1));
  t.Insert({Value(int64_t{1})});
  t.Insert({Value(int64_t{1})});
  EXPECT_EQ(t.live_row_count(), 2u);
  EXPECT_EQ(t.FindByPrimaryKey(Value(int64_t{1})), -1);  // no PK declared
}

TEST(Table, PoolLessTableSpansPagesWithTombstones) {
  // No buffer pool: pages are never evicted or pinned, but row ids still
  // split into page/slot, so every sweep must cross page boundaries.
  const size_t kRows = 2 * kPageRowCapacity + 100;
  Table t("t", MakeSchema());
  t.set_integrity_enabled(true);
  for (size_t i = 0; i < kRows; ++i) {
    const auto id = static_cast<int64_t>(i);
    t.Insert(MakeRow(id, 0.5 * id, "L" + std::to_string(id % 10)));
  }
  EXPECT_EQ(t.page_count(), 3u);
  EXPECT_EQ(t.resident_page_count(), 3u);

  // Dense run: batches of 700 straddle both page boundaries.
  std::vector<const Row*> lanes(700);
  const auto scan_ids = [&] {
    std::vector<int64_t> ids;
    size_t cursor = 0;
    while (const size_t n = t.FillBatch(&cursor, lanes.data(), lanes.size())) {
      for (size_t i = 0; i < n; ++i) ids.push_back((*lanes[i])[0].as_int());
    }
    EXPECT_EQ(cursor, t.slot_count());
    return ids;
  };
  std::vector<int64_t> ids = scan_ids();
  ASSERT_EQ(ids.size(), kRows);
  for (size_t i = 0; i < kRows; ++i) EXPECT_EQ(ids[i], static_cast<int64_t>(i));

  // Sparse run: every third row tombstoned, plus the first and last slot
  // of page 1.
  for (size_t i = 0; i < kRows; i += 3) t.Delete(i);
  t.Delete(kPageRowCapacity);
  t.Delete(2 * kPageRowCapacity - 1);
  std::vector<int64_t> expected;
  for (size_t i = 0; i < kRows; ++i) {
    if (t.IsLive(i)) expected.push_back(static_cast<int64_t>(i));
  }
  ASSERT_EQ(expected.size(), t.live_row_count());
  EXPECT_EQ(scan_ids(), expected);

  // Index over existing rows; the probe result feeds FillBatchFromIds.
  t.CreateIndex("idx_label", "label");
  const auto hits = t.IndexLookup("label", Value(std::string("L7")));
  size_t want = 0;
  for (int64_t id : expected) want += id % 10 == 7 ? 1 : 0;
  ASSERT_EQ(hits.size(), want);
  EXPECT_GT(hits.back() >> kPageRowShift, hits.front() >> kPageRowShift);
  std::vector<const Row*> probed(hits.size());
  EXPECT_EQ(t.FillBatchFromIds(hits.data(), hits.size(), probed.data()),
            hits.size());
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_TRUE(t.IsLive(hits[i]));
    EXPECT_EQ((*probed[i])[0].as_int(), static_cast<int64_t>(hits[i]));
    EXPECT_EQ((*probed[i])[2].as_text(), "L7");
  }

  uint64_t expected_hash = 0;
  uint64_t actual_hash = 0;
  EXPECT_TRUE(t.VerifyContent(&expected_hash, &actual_hash));
  EXPECT_EQ(expected_hash, actual_hash);
  const uint64_t checksum = t.content_hash();

  // Snapshot/restore compacts the tombstones away and keeps the content.
  const std::vector<Row> snapshot = t.SnapshotRows();
  ASSERT_EQ(snapshot.size(), expected.size());
  t.Insert(MakeRow(static_cast<int64_t>(kRows), 1.0, "extra"));
  t.RestoreRows(snapshot);
  EXPECT_EQ(t.live_row_count(), expected.size());
  EXPECT_EQ(t.slot_count(), expected.size());
  EXPECT_EQ(t.page_count(),
            (expected.size() + kPageRowCapacity - 1) / kPageRowCapacity);
  EXPECT_EQ(t.content_hash(), checksum);
  EXPECT_TRUE(t.VerifyContent());
  EXPECT_EQ(t.IndexLookup("label", Value(std::string("L7"))).size(), want);
  EXPECT_EQ(scan_ids(), expected);

  // Page-granular scrub localizes damage to the corrupted row's page.
  t.CorruptCellForTesting(kPageRowCapacity + 5, 1);
  int64_t bad_page = -1;
  EXPECT_FALSE(t.VerifyContent(nullptr, nullptr, &bad_page));
  EXPECT_EQ(bad_page, 1);
}

}  // namespace
}  // namespace sqloop::minidb
