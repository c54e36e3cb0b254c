#include "common/status.h"

namespace fuzzydb {

namespace {

const char* CodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kAlreadyExists:
      return "AlreadyExists";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
    case StatusCode::kUnimplemented:
      return "Unimplemented";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kResourceExhausted:
      return "ResourceExhausted";
    case StatusCode::kCancelled:
      return "Cancelled";
    case StatusCode::kDeadlineExceeded:
      return "DeadlineExceeded";
    case StatusCode::kDataLoss:
      return "DataLoss";
  }
  return "Unknown";
}

}  // namespace

Status::Status(StatusCode code, std::string message) {
  if (code != StatusCode::kOk) {
    state_ = std::make_unique<State>(State{code, std::move(message)});
  }
}

const std::string& Status::message() const {
  static const std::string kEmpty;
  return ok() ? kEmpty : state_->message;
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = CodeName(state_->code);
  out += ": ";
  out += state_->message;
  return out;
}

}  // namespace fuzzydb
