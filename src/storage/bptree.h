// In-memory B+ tree keyed on order-preserving encoded key bytes.
//
// One concrete tree serves every ordered-lookup need in the framework:
// primary/secondary table indexes store RowLocs packed into the uint64_t
// payload, and the repair engine's old-rowid→new-rowid remap stores row
// addresses. Keys are opaque byte strings compared with memcmp;
// AppendEncodedKeyValue below produces encodings whose byte order matches
// Value::Compare, so an equality prefix over leading key columns is a byte
// prefix of every matching full key — range scans are plain byte-interval
// scans.
//
// Structure follows Bustub's b_plus_tree shape: fixed fan-out nodes, leaf
// chain for ordered iteration, separators in internal nodes are lower bounds
// of their right child. Deletion tolerates underfull nodes (separators stay
// lower bounds, so searches only ever start slightly left — never miss);
// duplicate keys are stored as separate (key, value) entries and may span
// leaves, which the lower-bound descent handles. A cached rightmost-leaf
// pointer makes sorted (ascending-key) bulk loads append without any
// comparisons along the descent — the TPC-C loader's fast path.
//
// Reads go through a Cursor, Bustub's index iterator: Seek descends once to
// the first key >= a lower bound, then Next follows the leaf chain. Callers
// decide where a scan ends, so a probe visits entries where they lie and
// allocates nothing.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "storage/value.h"

namespace irdb {

class BPTree {
  struct Node;

 public:
  // Position on one (key, value) entry, or past the last one (!Valid()).
  // A cursor stays valid while its tree is not modified. The engine holds
  // each table's latch for a whole statement — shared on every FROM table
  // of a SELECT, exclusive for DML, which collects its matching rows before
  // it writes any — so a cursor opened inside a statement never sees an
  // Insert or Erase.
  class Cursor {
   public:
    Cursor() = default;
    bool Valid() const { return leaf_ != nullptr; }
    std::string_view key() const { return leaf_->keys[i_]; }
    uint64_t value() const { return leaf_->values[i_]; }
    void Next() {
      ++i_;
      SkipExhausted();
    }

   private:
    friend class BPTree;
    Cursor(const Node* leaf, size_t i) : leaf_(leaf), i_(i) { SkipExhausted(); }
    // Moves past leaves whose entries are used up, including leaves Erase
    // emptied; leaves the cursor invalid after the last leaf.
    void SkipExhausted() {
      while (leaf_ != nullptr && i_ >= leaf_->keys.size()) {
        leaf_ = leaf_->next;
        i_ = 0;
      }
    }

    const Node* leaf_ = nullptr;
    size_t i_ = 0;
  };

  BPTree() = default;
  BPTree(const BPTree&) = delete;
  BPTree& operator=(const BPTree&) = delete;

  void Insert(std::string_view key, uint64_t value);

  // Removes one (key, value) entry; returns false when absent.
  bool Erase(std::string_view key, uint64_t value);

  // Cursor on the first entry whose key is >= `lower` (duplicates in
  // insertion order); invalid when every key is smaller.
  Cursor Seek(std::string_view lower) const;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  int height() const { return height_; }

 private:
  struct Node {
    bool leaf = true;
    // Leaf: entry keys (duplicates allowed), parallel to `values`.
    // Internal: separators; keys[i] is a lower bound of children[i + 1].
    std::vector<std::string> keys;
    std::vector<uint64_t> values;                 // leaf only
    std::vector<std::unique_ptr<Node>> children;  // internal only
    Node* next = nullptr;                         // leaf chain
  };

  Node* DescendToLeaf(std::string_view key) const;  // lower-bound descent

  std::unique_ptr<Node> root_;
  Node* rightmost_ = nullptr;
  std::string max_key_;  // largest key ever inserted (fast-path gate)
  size_t size_ = 0;
  int height_ = 0;
};

// --- order-preserving key encoding -----------------------------------------
//
// Per value: a tag byte (0x00 NULL, 0x01 present), then a payload whose byte
// order matches Value::Compare within a column's declared type:
//   INT    8 bytes big-endian, sign bit flipped
//   DOUBLE 8 bytes big-endian IEEE-754; negative values bit-flipped, others
//          sign-flipped (total order matching operator<)
//   STRING bytes with 0x00 escaped as {0x00,0xFF}, terminated by {0x00,0x01}
// Every encoding is self-delimiting, so composite keys concatenate and the
// encoding of an equality prefix is a byte prefix of all matching full keys.
// INT and DOUBLE append their tag and payload as one 9-byte slot. Values
// must already be coerced to the column's type (mixed int/double in one
// column would not compare numerically).
void AppendEncodedKeyValue(const Value& v, std::string* out);

// RowLoc <-> uint64 payload packing for table indexes lives with the tree so
// every index agrees on it.
inline uint64_t PackLoc(int32_t page, int32_t slot) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(page)) << 32) |
         static_cast<uint32_t>(slot);
}
inline int32_t UnpackPage(uint64_t packed) {
  return static_cast<int32_t>(packed >> 32);
}
inline int32_t UnpackSlot(uint64_t packed) {
  return static_cast<int32_t>(packed & 0xffffffffu);
}

}  // namespace irdb
