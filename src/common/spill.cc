#include "src/common/spill.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <cerrno>
#include <cstring>

#include "src/common/strings.h"

namespace scrub {

namespace {

// Minimal mkdir -p: the spill directory is typically one level under a
// temp root, but nested configurations should not fail either.
bool EnsureDirectory(const std::string& dir) {
  if (dir.empty()) {
    return false;
  }
  std::string prefix;
  size_t pos = 0;
  while (pos <= dir.size()) {
    const size_t slash = dir.find('/', pos);
    prefix = slash == std::string::npos ? dir : dir.substr(0, slash);
    pos = slash == std::string::npos ? dir.size() + 1 : slash + 1;
    if (prefix.empty()) {
      continue;  // leading '/'
    }
    if (mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      return false;
    }
  }
  return true;
}

void PutU32(char* out, uint32_t v) {
  out[0] = static_cast<char>(v & 0xFF);
  out[1] = static_cast<char>((v >> 8) & 0xFF);
  out[2] = static_cast<char>((v >> 16) & 0xFF);
  out[3] = static_cast<char>((v >> 24) & 0xFF);
}

uint32_t GetU32(const char* in) {
  return static_cast<uint32_t>(static_cast<unsigned char>(in[0])) |
         (static_cast<uint32_t>(static_cast<unsigned char>(in[1])) << 8) |
         (static_cast<uint32_t>(static_cast<unsigned char>(in[2])) << 16) |
         (static_cast<uint32_t>(static_cast<unsigned char>(in[3])) << 24);
}

}  // namespace

SpillRun::~SpillRun() { Discard(); }

size_t SpillRun::Append(uint32_t host, const std::string& payload) {
  if (file_ == nullptr || reading_) {
    return 0;
  }
  // Injected write failure: the record is lost *before* any byte lands, so
  // the file always ends on a whole-record boundary.
  if (faults_ != nullptr && faults_->write_fail > 0.0 && rng_ != nullptr &&
      rng_->NextBool(faults_->write_fail)) {
    ++stats_->write_failures;
    return 0;
  }
  char header[8];
  PutU32(header, static_cast<uint32_t>(payload.size()));
  PutU32(header + 4, host);
  if (std::fwrite(header, 1, sizeof(header), file_) != sizeof(header) ||
      std::fwrite(payload.data(), 1, payload.size(), file_) !=
          payload.size()) {
    ++stats_->write_failures;
    // A torn record would corrupt every later one; drop the run's write end
    // so subsequent appends degrade to counted shed.
    std::fclose(file_);
    file_ = nullptr;
    return 0;
  }
  const size_t wrote = sizeof(header) + payload.size();
  ++records_;
  bytes_ += wrote;
  ++stats_->records_written;
  stats_->bytes_written += wrote;
  return wrote;
}

bool SpillRun::BeginReplay() {
  if (file_ == nullptr) {
    return false;
  }
  reading_ = true;
  read_bytes_ = 0;
  if (std::fflush(file_) != 0 || std::fseek(file_, 0, SEEK_SET) != 0) {
    ++stats_->read_failures;
    read_failed_ = true;
    return false;
  }
  return true;
}

bool SpillRun::Next(uint32_t* host, std::string* payload) {
  if (file_ == nullptr || !reading_ || read_failed_) {
    return false;
  }
  char header[8];
  const size_t got = std::fread(header, 1, sizeof(header), file_);
  if (got == 0) {
    return false;  // clean end of run
  }
  if (got != sizeof(header)) {
    ++stats_->read_failures;
    read_failed_ = true;
    return false;
  }
  // Injected read failure: this record and everything after it is lost.
  if (faults_ != nullptr && faults_->read_fail > 0.0 && rng_ != nullptr &&
      rng_->NextBool(faults_->read_fail)) {
    ++stats_->read_failures;
    read_failed_ = true;
    return false;
  }
  const uint32_t len = GetU32(header);
  *host = GetU32(header + 4);
  read_bytes_ += sizeof(header);
  // A length no written record could have (past the bytes this run wrote)
  // is corruption: fail before allocating for it.
  if (read_bytes_ > bytes_ || len > bytes_ - read_bytes_) {
    ++stats_->read_failures;
    read_failed_ = true;
    return false;
  }
  read_bytes_ += len;
  payload->resize(len);
  if (len > 0 && std::fread(payload->data(), 1, len, file_) != len) {
    ++stats_->read_failures;
    read_failed_ = true;
    return false;
  }
  ++stats_->records_replayed;
  return true;
}

void SpillRun::Discard() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  if (!path_.empty()) {
    std::remove(path_.c_str());
    path_.clear();
    ++stats_->runs_discarded;
  }
}

void SpillManager::Configure(std::string dir, std::string instance,
                             uint64_t seed, SpillFaultSpec faults) {
  dir_ = std::move(dir);
  if (!instance.empty()) {
    instance_ = std::move(instance);
  }
  SetFaults(faults, seed);
}

void SpillManager::SetFaults(SpillFaultSpec faults, uint64_t seed) {
  faults_ = faults;
  // Inactive specs consume no randomness at all (transport discipline), so
  // the stream only exists while faults are armed.
  fault_rng_ = faults_.Active() ? std::make_unique<Rng>(seed) : nullptr;
}

std::unique_ptr<SpillRun> SpillManager::Open(uint64_t query_id,
                                             TimeMicros window_start) {
  if (!enabled() || !EnsureDirectory(dir_)) {
    ++stats_.open_failures;
    return nullptr;
  }
  const std::string path = StrFormat(
      "%s/%s_q%llu_w%lld_%llu.spill", dir_.c_str(), instance_.c_str(),
      static_cast<unsigned long long>(query_id),
      static_cast<long long>(window_start),
      static_cast<unsigned long long>(opened_));
  std::FILE* file = std::fopen(path.c_str(), "w+b");
  if (file == nullptr) {
    ++stats_.open_failures;
    return nullptr;
  }
  ++opened_;
  ++stats_.runs_opened;
  return std::unique_ptr<SpillRun>(
      new SpillRun(file, path, &stats_, fault_rng_.get(), &faults_));
}

}  // namespace scrub
