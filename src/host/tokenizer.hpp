// Byte-level tokenizer with learned merges (BPE-style) for the host runtime.
//
// GPT-2 ships a 50257-entry byte-pair-encoding vocabulary; the pretrained
// merge table is not available offline, so this tokenizer *trains* its merge
// table from a corpus with the standard BPE procedure (greedy most-frequent
// pair merging over byte sequences). The resulting encode/decode round-trip
// is exact for any byte string — the property the host loop needs — and the
// vocabulary layout matches GPT-2's (256 byte tokens first, merges after,
// EOS last).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace looplynx::host {

class Tokenizer {
 public:
  /// Token id reserved for end-of-sequence (always vocab_size() - 1).
  std::uint32_t eos_id() const { return eos_id_; }
  std::uint32_t vocab_size() const {
    return static_cast<std::uint32_t>(vocab_.size());
  }

  /// Trains a merge table on `corpus` until the vocabulary reaches
  /// `target_vocab` entries (or no pair repeats). target_vocab must be
  /// >= 257 (256 byte tokens + EOS).
  static Tokenizer train(std::string_view corpus, std::uint32_t target_vocab);

  /// Byte-only tokenizer (no merges): 256 byte tokens + EOS.
  static Tokenizer byte_level();

  /// Encodes text to token ids (never produces EOS).
  std::vector<std::uint32_t> encode(std::string_view text) const;

  /// Decodes ids back to text; EOS terminates decoding.
  std::string decode(const std::vector<std::uint32_t>& ids) const;

  std::size_t num_merges() const { return merges_.size(); }

 private:
  Tokenizer() = default;

  // vocab_[id] = byte string; ids [0,255] are single bytes.
  std::vector<std::string> vocab_;
  // Merge rules in priority order: (left id, right id) -> merged id.
  std::vector<std::pair<std::pair<std::uint32_t, std::uint32_t>,
                        std::uint32_t>>
      merges_;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint32_t>
      merge_lookup_;  // with rank encoded via merged id ordering
  std::uint32_t eos_id_ = 256;
};

}  // namespace looplynx::host
