#include "packet/packet.hpp"

namespace manet {

namespace {
// Where Packet() mints uids on this thread: the innermost PacketUidScope's
// counter (the running scenario's), else the thread's own fallback.
struct UidMint {
  std::uint64_t* scoped = nullptr;
  std::uint64_t fallback = 1;
};
// manet-lint: allow-global-state - per-thread uid mint pointed at the running scenario's own counter; uids label trace lines but never influence simulated behaviour
thread_local UidMint t_mint;
}  // namespace

Packet::Packet() : uid_(t_mint.scoped != nullptr ? (*t_mint.scoped)++ : t_mint.fallback++) {}

PacketUidScope::PacketUidScope(std::uint64_t& next) : prev_(t_mint.scoped) {
  t_mint.scoped = &next;
}

PacketUidScope::~PacketUidScope() { t_mint.scoped = prev_; }

std::size_t Packet::size_bytes() const {
  switch (mac.type) {
    case MacFrameType::kRts: return kMacRtsBytes;
    case MacFrameType::kCts: return kMacCtsBytes;
    case MacFrameType::kAck: return kMacAckBytes;
    case MacFrameType::kData: break;
  }
  std::size_t n = kMacDataHeaderBytes;
  if (kind == PacketKind::kArp) return n + kArpBytes;
  n += kIpHeaderBytes;
  if (kind == PacketKind::kData) {
    n += kUdpHeaderBytes + payload_bytes;
    if (transport.kind != SegKind::kNone) n += kTransportHeaderBytes;
  }
  if (routing) n += routing->size_bytes();
  return n;
}

std::shared_ptr<const Packet> PacketArena::make(const Packet& src) {
  std::unique_ptr<Packet> p;
  if (!pool_->free.empty()) {
    p = std::move(pool_->free.back());
    pool_->free.pop_back();
    *p = src;  // copy-assign: headers + a shared payload handle, no clone
  } else {
    p = std::make_unique<Packet>(src);
  }
  // The deleter holds the pool by value, so a copy still in flight when the
  // arena's owner (the Channel) is destroyed recycles into a pool that
  // simply dies with the last shared_ptr — no dangling either way.
  return {p.release(), Recycle{pool_}};
}

void PacketArena::Recycle::operator()(const Packet* p) const {
  pool->free.emplace_back(const_cast<Packet*>(p));
}

}  // namespace manet
