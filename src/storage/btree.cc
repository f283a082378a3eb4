#include "storage/btree.h"

#include <cstring>

#include "common/failpoint.h"
#include "storage/record_codec.h"

namespace codes::storage {

namespace {

// Node page layout: the node region starts after the physical page header
// (checksum/LSN, page.h) with a 16-byte node header followed by
// length-prefixed entries packed sequentially (nodes are rewritten
// wholesale on mutation, so no slot directory is needed):
//   [u8 type][u8 pad][u16 count][u32 next_leaf][u32 leftmost_child][u32 pad]
//   ([u16 len][entry bytes]) x count
// Leaf entry:      serialized key Value || rid.page u32 || rid.slot u32
// Internal entry:  <fence: key Value || rid> || child u32
// The fence of internal entry i is the smallest composite key in child
// i's subtree at the time it was created (a "low fence"), so routing never
// needs fence updates when new maxima are inserted.
constexpr size_t kNodeHeader = 16;
/// Bytes a node may occupy: everything past the physical page header.
constexpr size_t kNodeCapacity = kPageSize - kPageHeaderBytes;
constexpr uint8_t kLeafType = 1;
constexpr uint8_t kInternalType = 2;

int CompareKeyRid(const sql::Value& a, const Rid& ar, const sql::Value& b,
                  const Rid& br) {
  int c = a.Compare(b);
  if (c != 0) return c;
  if (ar < br) return -1;
  if (br < ar) return 1;
  return 0;
}

std::string MakeLeafEntry(const sql::Value& key, const Rid& rid) {
  std::string out;
  AppendValue(key, &out);
  AppendU32(rid.page, &out);
  AppendU32(rid.slot, &out);
  return out;
}

/// Parses the composite key at the front of any entry (leaf or internal;
/// an internal entry's trailing child id is simply not consumed).
Status ParseEntryKey(const std::string& e, sql::Value* key, Rid* rid) {
  size_t pos = 0;
  CODES_RETURN_IF_ERROR(ParseValue(e.data(), e.size(), &pos, key));
  if (pos + 8 > e.size()) return Status::Internal("truncated index entry");
  std::memcpy(&rid->page, e.data() + pos, 4);
  std::memcpy(&rid->slot, e.data() + pos + 4, 4);
  return Status::Ok();
}

PageId InternalChild(const std::string& e) {
  PageId child;
  std::memcpy(&child, e.data() + e.size() - 4, 4);
  return child;
}

/// The fence (composite key bytes) of an internal entry. A leaf entry IS
/// its own fence encoding, which is what split propagation relies on.
std::string FenceOf(const std::string& internal_entry) {
  return internal_entry.substr(0, internal_entry.size() - 4);
}

std::string MakeInternalEntry(const std::string& fence, PageId child) {
  std::string out = fence;
  AppendU32(child, &out);
  return out;
}

}  // namespace

struct BPlusTree::Node {
  bool leaf = true;
  PageId next = kInvalidPageId;      ///< leaf chain
  PageId leftmost = kInvalidPageId;  ///< internal: child left of entry 0
  std::vector<std::string> entries;
};

struct BPlusTree::InsertOutcome {
  bool split = false;
  std::string fence;  ///< low fence of the new right node
  PageId right = kInvalidPageId;
};

namespace {

size_t NodeBytes(const BPlusTree::Node& node);

}  // namespace

// Node helpers need access to the nested struct, so they live here.
namespace {

size_t NodeBytes(const BPlusTree::Node& node) {
  size_t bytes = kNodeHeader;
  for (const auto& e : node.entries) bytes += 2 + e.size();
  return bytes;
}

Status LoadNode(BufferPool* pool, PageId id, BPlusTree::Node* node) {
  CODES_ASSIGN_OR_RETURN(PageGuard guard, pool->Fetch(id));
  const std::byte* p = guard.data() + kPageHeaderBytes;
  uint8_t type = static_cast<uint8_t>(p[0]);
  if (type != kLeafType && type != kInternalType) {
    return Status::Internal("corrupt index node " + std::to_string(id));
  }
  node->leaf = type == kLeafType;
  uint16_t count = LoadU16(p + 2);
  node->next = LoadU32(p + 4);
  node->leftmost = LoadU32(p + 8);
  node->entries.clear();
  node->entries.reserve(count);
  size_t pos = kNodeHeader;
  for (uint16_t i = 0; i < count; ++i) {
    if (pos + 2 > kNodeCapacity) {
      return Status::Internal("corrupt index node");
    }
    uint16_t len = LoadU16(p + pos);
    pos += 2;
    if (pos + len > kNodeCapacity) {
      return Status::Internal("corrupt index node");
    }
    node->entries.emplace_back(reinterpret_cast<const char*>(p + pos), len);
    pos += len;
  }
  return Status::Ok();
}

Status StoreNodeInto(PageGuard* guard, const BPlusTree::Node& node) {
  if (NodeBytes(node) > kNodeCapacity) {
    return Status::Internal("index node overflow");
  }
  // Clear the node region only: the physical page header (checksum, LSN)
  // belongs to the disk manager / WAL layer and must survive rewrites.
  std::byte* p = guard->data() + kPageHeaderBytes;
  std::memset(p, 0, kNodeCapacity);
  p[0] = static_cast<std::byte>(node.leaf ? kLeafType : kInternalType);
  StoreU16(p + 2, static_cast<uint16_t>(node.entries.size()));
  StoreU32(p + 4, node.next);
  StoreU32(p + 8, node.leftmost);
  size_t pos = kNodeHeader;
  for (const auto& e : node.entries) {
    StoreU16(p + pos, static_cast<uint16_t>(e.size()));
    pos += 2;
    std::memcpy(p + pos, e.data(), e.size());
    pos += e.size();
  }
  guard->MarkDirty();
  return Status::Ok();
}

Status StoreNode(BufferPool* pool, PageId id, const BPlusTree::Node& node) {
  CODES_ASSIGN_OR_RETURN(PageGuard guard, pool->Fetch(id));
  return StoreNodeInto(&guard, node);
}

Result<PageId> NewNode(BufferPool* pool, const BPlusTree::Node& node) {
  CODES_ASSIGN_OR_RETURN(PageGuard guard, pool->NewPage());
  CODES_RETURN_IF_ERROR(StoreNodeInto(&guard, node));
  return guard.page_id();
}

/// Index of the last entry whose fence is <= (key, rid), or -1 (descend
/// into leftmost_child).
Result<int> DescendPosition(const BPlusTree::Node& node, const sql::Value& key,
                            const Rid& rid) {
  int pos = -1;
  for (size_t i = 0; i < node.entries.size(); ++i) {
    sql::Value fence_key;
    Rid fence_rid;
    CODES_RETURN_IF_ERROR(
        ParseEntryKey(node.entries[i], &fence_key, &fence_rid));
    if (CompareKeyRid(fence_key, fence_rid, key, rid) <= 0) {
      pos = static_cast<int>(i);
    } else {
      break;
    }
  }
  return pos;
}

/// Split index: first j in [1, n) such that entries[0..j) hold at least
/// half the payload bytes.
size_t SplitIndex(const std::vector<std::string>& entries) {
  size_t total = 0;
  for (const auto& e : entries) total += 2 + e.size();
  size_t acc = 0;
  for (size_t j = 0; j + 1 < entries.size(); ++j) {
    acc += 2 + entries[j].size();
    if (acc * 2 >= total && j + 1 >= 1) return j + 1;
  }
  return entries.size() - 1;
}

}  // namespace

BPlusTree::BPlusTree(BufferPool* pool, PageId root)
    : pool_(pool), root_(root) {}

Status BPlusTree::Insert(const sql::Value& key, const Rid& rid) {
  std::string entry = MakeLeafEntry(key, rid);
  if (entry.size() + 4 + 2 > kPageSize / 8) {
    // Oversized keys would break the two-entries-per-node minimum with
    // slack; the storage engine skips indexing such columns entirely.
    return Status::InvalidArgument("index key too large");
  }
  if (root_ == kInvalidPageId) {
    Node leaf;
    leaf.leaf = true;
    leaf.entries.push_back(std::move(entry));
    CODES_ASSIGN_OR_RETURN(root_, NewNode(pool_, leaf));
    return Status::Ok();
  }
  InsertOutcome outcome;
  CODES_RETURN_IF_ERROR(InsertRec(root_, entry, key, rid, &outcome));
  if (outcome.split) {
    Node new_root;
    new_root.leaf = false;
    new_root.leftmost = root_;
    new_root.entries.push_back(
        MakeInternalEntry(outcome.fence, outcome.right));
    CODES_ASSIGN_OR_RETURN(root_, NewNode(pool_, new_root));
  }
  return Status::Ok();
}

Status BPlusTree::InsertRec(PageId node_id, const std::string& leaf_entry,
                            const sql::Value& key, const Rid& rid,
                            InsertOutcome* outcome) {
  Node node;
  CODES_RETURN_IF_ERROR(LoadNode(pool_, node_id, &node));

  if (node.leaf) {
    // Position: first entry with composite key > (key, rid).
    size_t pos = 0;
    for (; pos < node.entries.size(); ++pos) {
      sql::Value ekey;
      Rid erid;
      CODES_RETURN_IF_ERROR(ParseEntryKey(node.entries[pos], &ekey, &erid));
      int cmp = CompareKeyRid(ekey, erid, key, rid);
      if (cmp == 0) {
        return Status::InvalidArgument("duplicate index entry");
      }
      if (cmp > 0) break;
    }
    node.entries.insert(node.entries.begin() + pos, leaf_entry);
    if (NodeBytes(node) <= kNodeCapacity) {
      return StoreNode(pool_, node_id, node);
    }
    if (Failpoints::ShouldFail(FailpointSite::kStorageSplit)) {
      return Failpoints::FailStatus(FailpointSite::kStorageSplit);
    }
    size_t j = SplitIndex(node.entries);
    Node right;
    right.leaf = true;
    right.next = node.next;
    right.entries.assign(node.entries.begin() + j, node.entries.end());
    node.entries.resize(j);
    CODES_ASSIGN_OR_RETURN(PageId right_id, NewNode(pool_, right));
    node.next = right_id;
    CODES_RETURN_IF_ERROR(StoreNode(pool_, node_id, node));
    outcome->split = true;
    outcome->fence = right.entries.front();  // leaf entry == its fence
    outcome->right = right_id;
    return Status::Ok();
  }

  CODES_ASSIGN_OR_RETURN(int pos, DescendPosition(node, key, rid));
  PageId child =
      pos < 0 ? node.leftmost : InternalChild(node.entries[pos]);
  InsertOutcome child_outcome;
  CODES_RETURN_IF_ERROR(
      InsertRec(child, leaf_entry, key, rid, &child_outcome));
  if (!child_outcome.split) return Status::Ok();

  node.entries.insert(
      node.entries.begin() + pos + 1,
      MakeInternalEntry(child_outcome.fence, child_outcome.right));
  if (NodeBytes(node) <= kNodeCapacity) {
    return StoreNode(pool_, node_id, node);
  }
  if (Failpoints::ShouldFail(FailpointSite::kStorageSplit)) {
    return Failpoints::FailStatus(FailpointSite::kStorageSplit);
  }
  size_t j = SplitIndex(node.entries);
  Node right;
  right.leaf = false;
  right.leftmost = InternalChild(node.entries[j]);
  right.entries.assign(node.entries.begin() + j + 1, node.entries.end());
  outcome->fence = FenceOf(node.entries[j]);
  node.entries.resize(j);
  CODES_ASSIGN_OR_RETURN(PageId right_id, NewNode(pool_, right));
  CODES_RETURN_IF_ERROR(StoreNode(pool_, node_id, node));
  outcome->split = true;
  outcome->right = right_id;
  return Status::Ok();
}

Result<bool> BPlusTree::Contains(const sql::Value& key,
                                 const Rid& rid) const {
  CODES_ASSIGN_OR_RETURN(Iterator it, Seek(key));
  while (it.Valid()) {
    int cmp = CompareKeyRid(it.key(), it.rid(), key, rid);
    if (cmp == 0) return true;
    if (cmp > 0) return false;
    CODES_RETURN_IF_ERROR(it.Advance());
  }
  return false;
}

Status BPlusTree::LoadLeafInto(PageId leaf, Iterator* it) const {
  Node node;
  CODES_RETURN_IF_ERROR(LoadNode(pool_, leaf, &node));
  it->entries_.clear();
  it->entries_.reserve(node.entries.size());
  for (const auto& e : node.entries) {
    Entry entry;
    CODES_RETURN_IF_ERROR(ParseEntryKey(e, &entry.key, &entry.rid));
    it->entries_.push_back(std::move(entry));
  }
  it->pos_ = 0;
  it->next_leaf_ = node.next;
  return Status::Ok();
}

Status BPlusTree::Iterator::Advance() {
  if (pos_ < entries_.size()) ++pos_;
  while (pos_ >= entries_.size() && next_leaf_ != kInvalidPageId) {
    CODES_RETURN_IF_ERROR(tree_->LoadLeafInto(next_leaf_, this));
  }
  return Status::Ok();
}

Result<BPlusTree::Iterator> BPlusTree::SeekFirst() const {
  Iterator it;
  it.tree_ = this;
  if (root_ == kInvalidPageId) return it;
  PageId id = root_;
  for (;;) {
    Node node;
    CODES_RETURN_IF_ERROR(LoadNode(pool_, id, &node));
    if (node.leaf) break;
    id = node.leftmost;
  }
  CODES_RETURN_IF_ERROR(LoadLeafInto(id, &it));
  return it;
}

Result<BPlusTree::Iterator> BPlusTree::Seek(const sql::Value& key) const {
  Iterator it;
  it.tree_ = this;
  if (root_ == kInvalidPageId) return it;
  const Rid min_rid{0, 0};
  PageId id = root_;
  for (;;) {
    Node node;
    CODES_RETURN_IF_ERROR(LoadNode(pool_, id, &node));
    if (node.leaf) break;
    CODES_ASSIGN_OR_RETURN(int pos, DescendPosition(node, key, min_rid));
    id = pos < 0 ? node.leftmost : InternalChild(node.entries[pos]);
  }
  CODES_RETURN_IF_ERROR(LoadLeafInto(id, &it));
  for (;;) {
    if (it.pos_ >= it.entries_.size()) {
      if (it.next_leaf_ == kInvalidPageId) break;
      CODES_RETURN_IF_ERROR(LoadLeafInto(it.next_leaf_, &it));
      continue;
    }
    const Entry& e = it.entries_[it.pos_];
    if (CompareKeyRid(e.key, e.rid, key, min_rid) >= 0) break;
    ++it.pos_;
  }
  return it;
}

Status BPlusTree::CollectRange(const sql::IndexBound& lo,
                               const sql::IndexBound& hi,
                               std::vector<Rid>* out) const {
  Result<Iterator> start =
      lo.value != nullptr ? Seek(*lo.value) : SeekFirst();
  CODES_RETURN_IF_ERROR(start.status());
  Iterator it = std::move(*start);
  while (it.Valid()) {
    if (lo.value != nullptr && !lo.inclusive &&
        it.key().Compare(*lo.value) == 0) {
      CODES_RETURN_IF_ERROR(it.Advance());
      continue;
    }
    if (hi.value != nullptr) {
      int cmp = it.key().Compare(*hi.value);
      if (cmp > 0 || (cmp == 0 && !hi.inclusive)) break;
    }
    out->push_back(it.rid());
    CODES_RETURN_IF_ERROR(it.Advance());
  }
  return Status::Ok();
}

Result<uint64_t> BPlusTree::CountEntries() const {
  CODES_ASSIGN_OR_RETURN(Iterator it, SeekFirst());
  uint64_t n = 0;
  while (it.Valid()) {
    ++n;
    CODES_RETURN_IF_ERROR(it.Advance());
  }
  return n;
}

}  // namespace codes::storage
