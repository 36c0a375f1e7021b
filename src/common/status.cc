#include "src/common/status.h"

namespace youtopia {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kNotFound: return "NotFound";
    case StatusCode::kAlreadyExists: return "AlreadyExists";
    case StatusCode::kInvalidArgument: return "InvalidArgument";
    case StatusCode::kAborted: return "Aborted";
    case StatusCode::kTimedOut: return "TimedOut";
    case StatusCode::kCorruption: return "Corruption";
    case StatusCode::kInternal: return "Internal";
    case StatusCode::kUnimplemented: return "Unimplemented";
    case StatusCode::kIOError: return "IOError";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string s = StatusCodeName(code_);
  if (!msg_.empty()) {
    s += ": ";
    s += msg_;
  }
  return s;
}

}  // namespace youtopia
