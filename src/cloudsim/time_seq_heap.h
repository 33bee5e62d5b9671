// The (time, seq) priority queue behind EventLoop and the network's
// per-lane arrival queues (cloudsim-internal).
//
// A 4-ary min-heap keyed by one unsigned __int128: a time's IEEE-754 bit
// pattern above a 64-bit sequence number.  Bit patterns of non-negative
// doubles order like their values, so one branch-free integer compare
// orders (time, seq) pairs exactly like the lexicographic pair compare;
// `t + 0.0` canonicalises -0.0 (equal to 0.0, but with the sign bit set).
// Callers guarantee finite, non-negative times (EventLoop validates them
// when scheduling) and unique sequence numbers, so keys are unique and any
// correct heap pops the one total order.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

namespace shuffledef::cloudsim::detail {

template <typename Value>
class TimeSeqHeap {
 public:
  using Key = unsigned __int128;
  struct Node {
    Key key;
    Value value;
    /// The time half of the key (-0.0 reads back as +0.0).
    [[nodiscard]] double time() const noexcept {
      return std::bit_cast<double>(static_cast<std::uint64_t>(key >> 64));
    }
  };

  [[nodiscard]] bool empty() const noexcept { return nodes_.empty(); }
  void reserve(std::size_t n) { nodes_.reserve(n); }
  /// The minimum; the heap must not be empty.
  [[nodiscard]] const Node& top() const noexcept { return nodes_.front(); }

  void push(double t, std::uint64_t seq, const Value& value) {
    const auto bits = std::bit_cast<std::uint64_t>(t + 0.0);
    const Node node{(static_cast<Key>(bits) << 64) | seq, value};
    // Sift a hole up from the new leaf: the parent of i is (i - 1) / 4.
    std::size_t i = nodes_.size();
    nodes_.push_back(node);
    for (; i > 0 && node.key < nodes_[(i - 1) / 4].key; i = (i - 1) / 4) {
      nodes_[i] = nodes_[(i - 1) / 4];
    }
    nodes_[i] = node;
  }

  /// Remove and return the minimum; the heap must not be empty.
  Node pop() {
    const Node top = nodes_.front();
    const Node last = nodes_.back();
    nodes_.pop_back();
    const std::size_t n = nodes_.size();
    // Sift `last` down from the root: the children of i start at 4i + 1.
    // A full set of four picks its minimum by a select tournament; only the
    // last parent can have fewer.
    std::size_t i = 0;
    for (std::size_t c = 1; c < n; c = 4 * i + 1) {
      std::size_t best = c;
      if (c + 3 < n) {
        const std::size_t lo = nodes_[c + 1].key < nodes_[c].key ? c + 1 : c;
        const std::size_t hi =
            nodes_[c + 3].key < nodes_[c + 2].key ? c + 3 : c + 2;
        best = nodes_[hi].key < nodes_[lo].key ? hi : lo;
      } else {
        for (std::size_t k = c + 1; k < n; ++k) {
          if (nodes_[k].key < nodes_[best].key) best = k;
        }
      }
      if (!(nodes_[best].key < last.key)) break;
      nodes_[i] = nodes_[best];
      i = best;
    }
    if (n > 0) nodes_[i] = last;
    return top;
  }

 private:
  std::vector<Node> nodes_;
};

}  // namespace shuffledef::cloudsim::detail
