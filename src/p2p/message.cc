#include "p2p/message.h"

namespace sprite::p2p {

std::string_view MessageTypeName(MessageType type) {
  switch (type) {
    case MessageType::kLookupHop:
      return "LookupHop";
    case MessageType::kPublishTerm:
      return "PublishTerm";
    case MessageType::kWithdrawTerm:
      return "WithdrawTerm";
    case MessageType::kQueryRequest:
      return "QueryRequest";
    case MessageType::kQueryResponse:
      return "QueryResponse";
    case MessageType::kPollRequest:
      return "PollRequest";
    case MessageType::kPollResponse:
      return "PollResponse";
    case MessageType::kReplicate:
      return "Replicate";
    case MessageType::kCachePush:
      return "CachePush";
    case MessageType::kVersionCheck:
      return "VersionCheck";
    case MessageType::kJoinRequest:
      return "JoinRequest";
    case MessageType::kJoinResponse:
      return "JoinResponse";
  }
  return "Unknown";
}

}  // namespace sprite::p2p
