#include "storage/bptree.h"

#include <algorithm>
#include <cstring>

#include "util/status.h"

namespace irdb {

namespace {

// Fan-out: split a node when it exceeds this many keys. 64 keeps the tree
// shallow (1e6 entries ≈ 4 levels) while node-local binary searches stay in
// one or two cache lines of string headers.
constexpr size_t kMaxKeys = 64;

}  // namespace

BPTree::Node* BPTree::DescendToLeaf(std::string_view key) const {
  Node* n = root_.get();
  if (n == nullptr) return nullptr;
  while (!n->leaf) {
    // First separator >= key; everything strictly below key lives left of
    // that child, so descend just left of it to catch duplicates/stale
    // separators (the leaf chain continues the scan rightward if needed).
    size_t i = static_cast<size_t>(
        std::lower_bound(n->keys.begin(), n->keys.end(), key) -
        n->keys.begin());
    n = n->children[i].get();
  }
  return n;
}

void BPTree::Insert(std::string_view key, uint64_t value) {
  if (root_ == nullptr) {
    root_ = std::make_unique<Node>();
    rightmost_ = root_.get();
    height_ = 1;
  }
  // Sorted-load fast path: a key >= everything in the tree descends along
  // the rightmost spine with no comparisons.
  const bool append = size_ == 0 || key >= max_key_;

  std::vector<std::pair<Node*, size_t>> path;  // (node, chosen child idx)
  Node* n = root_.get();
  while (!n->leaf) {
    size_t i;
    if (append) {
      i = n->children.size() - 1;
    } else {
      // upper_bound: equal keys insert to the right of existing ones.
      i = static_cast<size_t>(
          std::upper_bound(n->keys.begin(), n->keys.end(), key) -
          n->keys.begin());
    }
    path.emplace_back(n, i);
    n = n->children[i].get();
  }
  size_t pos = append ? n->keys.size()
                      : static_cast<size_t>(std::upper_bound(n->keys.begin(),
                                                             n->keys.end(), key) -
                                            n->keys.begin());
  n->keys.insert(n->keys.begin() + static_cast<ptrdiff_t>(pos),
                 std::string(key));
  n->values.insert(n->values.begin() + static_cast<ptrdiff_t>(pos), value);
  ++size_;
  if (append) max_key_.assign(key.data(), key.size());

  // Split upward while overfull.
  while (n->keys.size() > kMaxKeys) {
    auto right = std::make_unique<Node>();
    right->leaf = n->leaf;
    const size_t mid = n->keys.size() / 2;
    std::string separator;
    if (n->leaf) {
      right->keys.assign(std::make_move_iterator(n->keys.begin() + mid),
                         std::make_move_iterator(n->keys.end()));
      right->values.assign(n->values.begin() + mid, n->values.end());
      n->keys.resize(mid);
      n->values.resize(mid);
      right->next = n->next;
      n->next = right.get();
      separator = right->keys.front();
      if (rightmost_ == n) rightmost_ = right.get();
    } else {
      // Middle separator moves up; right child takes everything after it.
      separator = std::move(n->keys[mid]);
      right->keys.assign(std::make_move_iterator(n->keys.begin() + mid + 1),
                         std::make_move_iterator(n->keys.end()));
      right->children.assign(
          std::make_move_iterator(n->children.begin() + mid + 1),
          std::make_move_iterator(n->children.end()));
      n->keys.resize(mid);
      n->children.resize(mid + 1);
    }
    if (path.empty()) {
      auto new_root = std::make_unique<Node>();
      new_root->leaf = false;
      new_root->keys.push_back(std::move(separator));
      new_root->children.push_back(std::move(root_));
      new_root->children.push_back(std::move(right));
      root_ = std::move(new_root);
      ++height_;
      break;
    }
    auto [parent, idx] = path.back();
    path.pop_back();
    parent->keys.insert(parent->keys.begin() + static_cast<ptrdiff_t>(idx),
                        std::move(separator));
    parent->children.insert(
        parent->children.begin() + static_cast<ptrdiff_t>(idx) + 1,
        std::move(right));
    n = parent;
  }
}

bool BPTree::Erase(std::string_view key, uint64_t value) {
  Node* n = DescendToLeaf(key);
  while (n != nullptr) {
    size_t i = static_cast<size_t>(
        std::lower_bound(n->keys.begin(), n->keys.end(), key) -
        n->keys.begin());
    for (; i < n->keys.size(); ++i) {
      if (n->keys[i] != key) return false;  // past the duplicates: absent
      if (n->values[i] == value) {
        n->keys.erase(n->keys.begin() + static_cast<ptrdiff_t>(i));
        n->values.erase(n->values.begin() + static_cast<ptrdiff_t>(i));
        --size_;
        return true;
      }
    }
    n = n->next;  // duplicates may continue in the next leaf
  }
  return false;
}

BPTree::Cursor BPTree::Seek(std::string_view lower) const {
  const Node* n = DescendToLeaf(lower);
  if (n == nullptr) return Cursor();
  return Cursor(n, static_cast<size_t>(std::lower_bound(n->keys.begin(),
                                                        n->keys.end(), lower) -
                                       n->keys.begin()));
}

// --- key encoding -----------------------------------------------------------

namespace {

// The tag byte and `u` big-endian, appended as one 9-byte slot.
void AppendSlot(uint64_t u, std::string* out) {
  char slot[9] = {'\x01'};
  for (int i = 0; i < 8; ++i) slot[1 + i] = static_cast<char>(u >> (56 - 8 * i));
  out->append(slot, sizeof(slot));
}

}  // namespace

void AppendEncodedKeyValue(const Value& v, std::string* out) {
  if (v.is_null()) {
    out->push_back('\x00');
    return;
  }
  if (v.is_int()) {
    // Flip the sign bit: negatives order below positives in unsigned bytes.
    AppendSlot(static_cast<uint64_t>(v.as_int()) ^ (uint64_t{1} << 63), out);
    return;
  }
  if (v.is_double()) {
    double d = v.as_double();
    if (d == 0.0) d = 0.0;  // -0.0 == 0.0 must encode identically
    uint64_t u;
    std::memcpy(&u, &d, sizeof(u));
    // IEEE total-order transform: negative doubles flip entirely (so larger
    // magnitudes order first), non-negative flip only the sign bit.
    if (u & (uint64_t{1} << 63)) {
      u = ~u;
    } else {
      u ^= uint64_t{1} << 63;
    }
    AppendSlot(u, out);
    return;
  }
  // String: escape NUL, then a terminator ordering below every escape.
  out->push_back('\x01');
  for (char c : v.as_string()) {
    out->push_back(c);
    if (c == '\x00') out->push_back('\xff');
  }
  out->push_back('\x00');
  out->push_back('\x01');
}

}  // namespace irdb
