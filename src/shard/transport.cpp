#include "shard/transport.h"

#include <cstring>

namespace pathenum {

std::vector<uint8_t> EncodeFrame(uint64_t query_id, uint32_t src_shard,
                                 const PathBlockView& block) {
  uint64_t num_verts = 0;
  for (uint32_t i = 0; i < block.count; ++i) {
    num_verts += block.entries[i].suffix_len;
  }
  FrameHeader h;
  h.query_id = query_id;
  h.total_path_verts = block.total_path_vertices;
  h.src_shard = src_shard;
  h.num_paths = block.count;
  h.num_verts = static_cast<uint32_t>(num_verts);
  const size_t entries_bytes = sizeof(PathBlock::Entry) * h.num_paths;
  const size_t verts_bytes = sizeof(VertexId) * h.num_verts;
  std::vector<uint8_t> frame(sizeof(FrameHeader) + entries_bytes + verts_bytes);
  uint8_t* out = frame.data();
  std::memcpy(out, &h, sizeof(h));
  out += sizeof(h);
  std::memcpy(out, block.entries, entries_bytes);
  out += entries_bytes;
  std::memcpy(out, block.verts, verts_bytes);
  return frame;
}

bool DecodeFrame(std::span<const uint8_t> frame, FrameHeader& header,
                 std::vector<PathBlock::Entry>& entries,
                 std::vector<VertexId>& verts) {
  if (frame.size() < sizeof(FrameHeader)) return false;
  std::memcpy(&header, frame.data(), sizeof(FrameHeader));
  const size_t entries_bytes = sizeof(PathBlock::Entry) * header.num_paths;
  const size_t verts_bytes = sizeof(VertexId) * header.num_verts;
  if (frame.size() != sizeof(FrameHeader) + entries_bytes + verts_bytes) {
    return false;
  }
  entries.resize(header.num_paths);
  verts.resize(header.num_verts);
  std::memcpy(entries.data(), frame.data() + sizeof(FrameHeader),
              entries_bytes);
  std::memcpy(verts.data(), frame.data() + sizeof(FrameHeader) + entries_bytes,
              verts_bytes);
  return true;
}

// ---------------------------------------------------------------------------
// InProcessTransport
// ---------------------------------------------------------------------------

InProcessTransport::~InProcessTransport() { Stop(); }

void InProcessTransport::Start(uint32_t num_shards, FrameHandler handler) {
  PATHENUM_CHECK_MSG(endpoints_.empty(), "transport already started");
  PATHENUM_CHECK(num_shards >= 1);
  handler_ = std::move(handler);
  endpoints_.reserve(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    endpoints_.push_back(std::make_unique<Endpoint>());
  }
  for (uint32_t s = 0; s < num_shards; ++s) {
    endpoints_[s]->service = std::thread([this, s] { ServiceLoop(s); });
  }
}

bool InProcessTransport::Send(uint32_t dst_shard, std::vector<uint8_t> frame) {
  PATHENUM_CHECK(dst_shard < endpoints_.size());
  Endpoint& ep = *endpoints_[dst_shard];
  {
    // Checked under the endpoint mutex: once Stop has marked the endpoint,
    // no frame is accepted behind its draining service thread.
    std::lock_guard<std::mutex> lock(ep.mutex);
    if (ep.stopping) return false;
    ep.queue.push_back(std::move(frame));
  }
  ep.cv.notify_one();
  return true;
}

void InProcessTransport::Stop() {
  for (auto& ep : endpoints_) {
    // Set under the mutex the service thread checks its predicate under,
    // so the flag cannot land between that check and its wait (a lost
    // wake-up would leave the join below blocked forever).
    {
      std::lock_guard<std::mutex> lock(ep->mutex);
      ep->stopping = true;
    }
    ep->cv.notify_all();
  }
  for (auto& ep : endpoints_) {
    if (ep->service.joinable()) ep->service.join();
  }
}

void InProcessTransport::ServiceLoop(uint32_t shard) {
  Endpoint& ep = *endpoints_[shard];
  for (;;) {
    std::vector<uint8_t> frame;
    {
      std::unique_lock<std::mutex> lock(ep.mutex);
      ep.cv.wait(lock, [&] { return !ep.queue.empty() || ep.stopping; });
      if (ep.queue.empty()) return;  // stopping and drained
      frame = std::move(ep.queue.front());
      ep.queue.pop_front();
    }
    handler_(shard, std::move(frame));
  }
}

}  // namespace pathenum
