// The cross-shard message plane (DESIGN.md §14). Partial paths travel
// between shards as delta-encoded PathBlocks serialized into self-contained
// byte frames, so the interface is *socket-shaped* from day one: a frame is
// an opaque byte vector with an explicit header, `Send` is fire-and-forget
// toward a shard id, and delivery happens on the receiving shard's service
// context via a handler callback. The first implementation is an in-process
// queue (one MPSC queue + service thread per shard); a TCP backend can
// replace it without touching the router, which never looks inside the
// transport.
//
// Frame layout (little-endian, 4-byte alignable):
//   FrameHeader { query_id u64, total_path_verts u64,
//                 src_shard u32, num_paths u32, num_verts u32, reserved u32 }
//   PathBlock::Entry[num_paths]   (u16 prefix_len, u16 suffix_len)
//   VertexId[num_verts]           (the concatenated delta suffixes)
#ifndef PATHENUM_SHARD_TRANSPORT_H_
#define PATHENUM_SHARD_TRANSPORT_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "core/sink.h"
#include "util/common.h"

namespace pathenum {

struct FrameHeader {
  uint64_t query_id = 0;
  uint64_t total_path_verts = 0;
  uint32_t src_shard = 0;
  uint32_t num_paths = 0;
  uint32_t num_verts = 0;
  uint32_t reserved = 0;
};

/// Serializes `block` (as a view) into a self-contained frame.
std::vector<uint8_t> EncodeFrame(uint64_t query_id, uint32_t src_shard,
                                 const PathBlockView& block);

/// Parses a frame into `header` plus a PathBlockView over the reusable
/// decode buffers (memcpy'd out of the frame: the view stays valid after
/// the frame bytes are released, and the copy keeps the hot path free of
/// alignment/aliasing hazards). Returns false on a malformed frame.
bool DecodeFrame(std::span<const uint8_t> frame, FrameHeader& header,
                 std::vector<PathBlock::Entry>& entries,
                 std::vector<VertexId>& verts);

/// Abstract shard-to-shard frame carrier. Implementations deliver each
/// frame exactly once, in per-(src, dst) send order, by invoking the
/// handler on a thread dedicated to (or serialized per) the destination
/// shard — the router's per-shard stitch state relies on that
/// serialization. `Send` may be called from any handler thread (shards
/// forward continuations to each other mid-query).
class ShardTransport {
 public:
  /// Called on the destination shard's service context.
  using FrameHandler =
      std::function<void(uint32_t dst_shard, std::vector<uint8_t> frame)>;

  virtual ~ShardTransport() = default;

  /// Brings up `num_shards` endpoints. Must be called once, before Send.
  virtual void Start(uint32_t num_shards, FrameHandler handler) = 0;

  /// Enqueues `frame` toward `dst_shard`. Returns false when the transport
  /// is stopped (the frame is dropped).
  virtual bool Send(uint32_t dst_shard, std::vector<uint8_t> frame) = 0;

  /// Drains and joins the service contexts. Idempotent.
  virtual void Stop() = 0;
};

/// The in-process transport: one FIFO queue and one service thread per
/// shard. Delivery order per (src, dst) pair follows send order; handler
/// invocations for one shard are serialized on its thread.
class InProcessTransport : public ShardTransport {
 public:
  InProcessTransport() = default;
  ~InProcessTransport() override;

  void Start(uint32_t num_shards, FrameHandler handler) override;
  bool Send(uint32_t dst_shard, std::vector<uint8_t> frame) override;
  void Stop() override;

 private:
  struct Endpoint {
    std::mutex mutex;  // guards queue and stopping
    std::condition_variable cv;
    std::deque<std::vector<uint8_t>> queue;
    bool stopping = false;
    std::thread service;
  };

  void ServiceLoop(uint32_t shard);

  FrameHandler handler_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
};

}  // namespace pathenum

#endif  // PATHENUM_SHARD_TRANSPORT_H_
