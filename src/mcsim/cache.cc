#include "mcsim/cache.h"

#include <algorithm>
#include <bit>

namespace imoltp::mcsim {

namespace {

uint64_t RoundUpPow2(uint64_t v) { return std::bit_ceil(v); }

}  // namespace

Cache::Cache(const CacheConfig& config) : config_(config) {
  assoc_ = std::max<uint32_t>(1, config.associativity);
  const uint64_t lines =
      std::max<uint64_t>(assoc_, config.size_bytes / config.line_bytes);
  num_sets_ = RoundUpPow2(std::max<uint64_t>(1, lines / assoc_));
  set_mask_ = num_sets_ - 1;
  tags_.assign(num_sets_ * assoc_, 0);
  stamps_.assign(num_sets_ * assoc_, 0);
  shard_mu_ = std::make_unique<std::mutex[]>(kShards);
}

void Cache::Invalidate(uint64_t line_addr) {
  if (concurrent_) {
    std::lock_guard<std::mutex> guard(ShardFor(line_addr));
    InvalidateLocked(line_addr);
    return;
  }
  InvalidateLocked(line_addr);
}

void Cache::InvalidateLocked(uint64_t line_addr) {
  const uint64_t set = SetIndex(line_addr);
  const uint64_t tag = line_addr | kValidBit;
  uint64_t* tags = &tags_[set * assoc_];
  uint64_t* stamps = &stamps_[set * assoc_];
  for (uint32_t way = 0; way < assoc_; ++way) {
    if (tags[way] == tag) {
      tags[way] = 0;
      stamps[way] = 0;
      return;
    }
  }
}

void Cache::Reset() {
  std::fill(tags_.begin(), tags_.end(), 0);
  std::fill(stamps_.begin(), stamps_.end(), 0);
  shards_.fill(ShardCounters());
}

uint64_t Cache::hits() const {
  uint64_t sum = 0;
  for (const ShardCounters& shard : shards_) sum += shard.hits;
  return sum;
}

uint64_t Cache::misses() const {
  uint64_t sum = 0;
  for (const ShardCounters& shard : shards_) sum += shard.misses;
  return sum;
}

}  // namespace imoltp::mcsim
