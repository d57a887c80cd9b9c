#include "trace/trace.hpp"

#include <cerrno>
#include <cstring>

namespace manet {

const char* trace_type(const Packet& pkt) {
  switch (pkt.mac.type) {
    case MacFrameType::kRts:
    case MacFrameType::kCts:
    case MacFrameType::kAck:
      return "mac";
    case MacFrameType::kData: break;
  }
  switch (pkt.kind) {
    case PacketKind::kArp: return "arp";
    case PacketKind::kRoutingControl: return "rtr";
    case PacketKind::kData: return "cbr";
  }
  return "?";
}

TraceWriter::TraceWriter(const std::string& path) {
  file_ = std::fopen(path.c_str(), "w");
  if (file_ == nullptr) error_ = std::strerror(errno);
}

TraceWriter::~TraceWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

void TraceWriter::flush() {
  if (file_ != nullptr) std::fflush(file_);
}

void TraceWriter::record(char event, SimTime now, NodeId node, const Packet& pkt,
                         const char* note) {
  if (file_ == nullptr) return;
  std::fprintf(file_, "%c %.9f _%u_ RTR %llu %s %zu [%u -> %u]%s%s\n", event, now.sec(), node,
               static_cast<unsigned long long>(pkt.uid()), trace_type(pkt), pkt.size_bytes(),
               pkt.ip.src, pkt.ip.dst, note[0] != '\0' ? " " : "", note);
  ++lines_;
}

void TraceWriter::record_fault(SimTime now, NodeId node, const char* what) {
  if (file_ == nullptr) return;
  if (node == kBroadcast) {
    std::fprintf(file_, "F %.9f _*_ FLT %s\n", now.sec(), what);
  } else {
    std::fprintf(file_, "F %.9f _%u_ FLT %s\n", now.sec(), node, what);
  }
  ++lines_;
}

}  // namespace manet
