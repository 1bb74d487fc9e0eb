// Binary wire codecs for events.
//
// Hosts ship (selected, projected) events to ScrubCentral as columnar
// batches, which central decodes against the shared SchemaRegistry. Under
// them sits the self-describing event record codec (1 tag byte +
// fixed/length-prefixed payload per value): the columnar format reuses its
// primitives, and central's spill runs store one record per deferred event.
// Event::WireSize() and Value::WireSize() match the record encoding
// byte-for-byte, which the tests assert, so all byte accounting in the
// experiments is exact.

#ifndef SRC_EVENT_WIRE_H_
#define SRC_EVENT_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/event/column_batch.h"
#include "src/event/event.h"
#include "src/event/schema.h"

namespace scrub {

// How an EventBatch payload is laid out. Every event batch is columnar (one
// contiguous run per column instead of one record per event); a
// counters-only batch carries no payload at all.
enum class BatchFormat : uint8_t {
  kColumnar = 1,
  // 2 is unassigned: central rejects it like any other unknown format.
  // Multi-source (join) columnar staging: one columnar section per query
  // source plus the explicit arrival-order interleave, so the central join
  // replays the exact sequence in which the host logged the events
  // (EncodeColumnJoinBatch below).
  kColumnarJoin = 3,
};

// Appends the record encoding of `event` to `out`. Returns bytes written.
size_t EncodeEvent(const Event& event, std::string* out);

// Decodes one event record starting at out[*offset]; advances *offset past
// it. The event's schema is resolved from `registry` by type name.
Result<Event> DecodeEvent(const SchemaRegistry& registry,
                          const std::string& buffer, size_t* offset);

// ---- Columnar batch format -------------------------------------------------
//
// Layout (all integers little-endian, reusing the record codec's primitives):
//   u32 type_name_len, type_name bytes
//   u32 row_count
//   row_count x u64 request ids          (contiguous)
//   row_count x u64 timestamps           (contiguous)
//   per schema field, in schema order:
//     u8 column tag (0 = all-null/dropped, otherwise the physical rep)
//     [non-null tags only]
//       ceil(row_count/8) null-bitmap bytes (bit r set = row r null;
//         padding bits beyond row_count MUST be zero)
//       the non-null values only, contiguous:
//         bool    -> bit-packed, ceil(count/8) bytes, zero padding bits
//         int     -> 8-byte two's complement
//         double  -> 8-byte IEEE 754
//         string  -> u32 length + bytes
//         generic -> the record codec's tagged value encoding (same depth guard)
//         dict    -> u32 dictionary count (1..256), that many u32-length-
//                    prefixed entries, then one u8 code per non-null row.
//                    The encoder picks dict over string per column whenever
//                    the observed cardinality is low enough that the
//                    dictionary + codes are strictly smaller than the plain
//                    bytes; only string-typed schema fields may carry it.
//
// Encode sizes the payload exactly in a planning pass (null bitmaps,
// non-null counts, the dict/plain choice) and then writes it into a buffer
// grown once. Decode applies the same hostile-input discipline as the
// record codec: every read is truncation-checked (each fixed-width run --
// request ids, timestamps, a bitmap, an int/double/bool column's values --
// with one check as a whole, length-prefixed values one by one), row counts
// capped by what the remaining bytes could possibly hold, nonzero bitmap
// padding rejected, unknown column tags rejected, out-of-range dictionary
// codes and truncated/oversized dictionaries rejected, dict tags on
// non-string fields rejected, trailing bytes rejected.

// Appends the columnar encoding of the selected rows to `out`; returns bytes
// written. `selection` lists row indices in emission order (nullptr = all
// rows, `selected` ignored then must equal batch.rows()). Fields with
// keep_field[f] == false are encoded as dropped (all-null) columns, which is
// how projection reaches the wire without copying values. Pass
// keep_field == nullptr to keep every column. When `encodings` is non-null
// it is resized to one entry per schema field reporting the encoding chosen:
// -1 dropped/all-null, 0 plain, n > 0 dictionary with n entries.
size_t EncodeColumnBatch(const ColumnBatch& batch, const uint32_t* selection,
                         size_t selected, const std::vector<bool>* keep_field,
                         std::string* out,
                         std::vector<int>* encodings = nullptr);

// Decodes a columnar payload against `registry`. The batch owns its
// storage; nothing in it points into `buffer`.
Result<ColumnBatch> DecodeColumnBatch(const SchemaRegistry& registry,
                                      std::string_view buffer);

// ---- Columnar join batch format (BatchFormat::kColumnarJoin) ---------------
//
// Multi-source plans stage one row list per source at the agent, but the
// central join folds events in arrival order, so the wire carries both: the
// per-source columnar sections AND the explicit interleave that says which
// source each staged event came from. Layout:
//   u32 section_count (1..kMaxColumnJoinSections)
//   per section: u32 payload_len + a complete columnar payload (above)
//   u32 order_count (must equal the sum of section row counts)
//   order_count x u8 source index (< section_count; each source index must
//     appear exactly its section's row count of times)
// Decode rejects out-of-range section counts, truncated sections, order
// entries that disagree with the sections, and trailing bytes; each section
// is decoded, as a view of the payload rather than a copy, with the full
// columnar hostile-input discipline (including the per-section
// trailing-bytes check).

inline constexpr size_t kMaxColumnJoinSections = 16;

// One source's staged rows for EncodeColumnJoinBatch; same selection /
// projection contract as EncodeColumnBatch.
struct ColumnJoinSection {
  const ColumnBatch* batch = nullptr;
  const uint32_t* selection = nullptr;
  size_t selected = 0;
  const std::vector<bool>* keep_field = nullptr;
};

// `order[i]` is the source index of the i-th surviving event in arrival
// order; its length must equal the sum of the sections' selected counts.
// `encodings`, when non-null, receives one per-field report per section
// (same convention as EncodeColumnBatch).
size_t EncodeColumnJoinBatch(const std::vector<ColumnJoinSection>& sections,
                             const std::vector<uint8_t>& order,
                             std::string* out,
                             std::vector<std::vector<int>>* encodings = nullptr);

struct ColumnJoinBatch {
  std::vector<ColumnBatch> sections;  // one per query source, in plan order
  std::vector<uint8_t> order;         // arrival interleave over the sections
};

Result<ColumnJoinBatch> DecodeColumnJoinBatch(const SchemaRegistry& registry,
                                              std::string_view buffer);

// Builds a batch payload from materialized events (the logging baseline,
// tests and benches): appends it to `out` and returns its format. Events of
// one type encode as kColumnar; several types encode as kColumnarJoin with
// one section per type in first-appearance order (at most
// kMaxColumnJoinSections) and the events' own order as the interleave. No
// events append nothing and return kColumnar.
BatchFormat EncodeEvents(const std::vector<Event>& events, std::string* out);

}  // namespace scrub

#endif  // SRC_EVENT_WIRE_H_
