// Store codec for serve::Answer: the payload bytes behind every kAnswer
// record. Everything deterministic about an answer round-trips bit-exactly
// (doubles by bit pattern, including the full stationary vector), so an
// answer warm-loaded from the store serialises byte-identically to the
// solve that produced it — the property the serve persistence test pins.
#pragma once

#include <optional>

#include "serve/request.hpp"
#include "store/codec.hpp"
#include "store/record.hpp"

namespace tags::serve {

void encode_answer(const Answer& answer, store::BufWriter& w);

/// Decode one answer payload; nullopt on truncation, trailing bytes, or an
/// unknown policy name (the scenario must reconstruct exactly).
[[nodiscard]] std::optional<Answer> decode_answer(store::BufReader& rd);

/// The store key of an answer: kAnswer / policy wire name / structure
/// digest / rate digest. The engine's solve cache keys on the policy and
/// the rate digest alone, which already name the chain.
[[nodiscard]] store::RecordKey answer_key(const Answer& answer);

/// Assemble the full record: key, certificate summary, solve time, and the
/// encoded payload.
[[nodiscard]] store::Record answer_record(const Answer& answer,
                                          const store::CertSummary& cert,
                                          double solve_ms);

}  // namespace tags::serve
