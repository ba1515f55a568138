#include "src/refine/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "src/proc/footprint.h"

namespace perennial::refine {
namespace {

constexpr char kMagic[4] = {'P', 'C', 'C', 'K'};
constexpr size_t kHeaderBytes = 4 + 4 + 8 + 8 + 8;

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t h = 0xCBF29CE484222325ull;
  for (char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001B3ull;
  }
  return h;
}

// ---- writer ----

void PutU8(std::string* out, uint8_t v) { out->push_back(static_cast<char>(v)); }

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutString(std::string* out, const std::string& s) {
  PutU64(out, s.size());
  out->append(s);
}

void PutSizeVec(std::string* out, const std::vector<size_t>& v) {
  PutU64(out, v.size());
  for (size_t x : v) {
    PutU64(out, static_cast<uint64_t>(x));
  }
}

void PutFootprint(std::string* out, const proc::Footprint& fp) {
  PutU8(out, fp.recorded ? 1 : 0);
  PutU8(out, fp.opaque ? 1 : 0);
  PutU64(out, fp.accesses.size());
  for (const proc::Footprint::Access& a : fp.accesses) {
    PutU64(out, a.resource);
    PutU8(out, a.write ? 1 : 0);
  }
}

void PutPorLevels(std::string* out, const std::vector<detail::PorLevel>& levels) {
  PutU64(out, levels.size());
  for (const detail::PorLevel& level : levels) {
    PutU64(out, level.tried.size());
    for (const detail::TriedAlt& t : level.tried) {
      PutU8(out, static_cast<uint8_t>(t.kind));
      PutU64(out, static_cast<uint64_t>(static_cast<int64_t>(t.thread)));
      PutFootprint(out, t.footprint);
    }
  }
}

void PutReport(std::string* out, const Report& r) {
  PutU64(out, r.executions);
  PutU64(out, r.total_steps);
  PutU64(out, r.crashes_injected);
  PutU64(out, r.env_events_fired);
  PutU64(out, r.histories_checked);
  PutU64(out, r.histories_deduped);
  PutU64(out, r.por_pruned);
  PutU64(out, r.crash_pruned);
  PutU64(out, r.spec_states_explored);
  PutU8(out, r.truncated ? 1 : 0);
  PutU32(out, static_cast<uint32_t>(r.outcome));
  PutU64(out, r.violations.size());
  for (const Violation& v : r.violations) {
    PutString(out, v.kind);
    PutString(out, v.detail);
    PutString(out, v.trace);
    PutU64(out, v.schedule.size());
    for (const ScheduleDecision& d : v.schedule) {
      PutU8(out, static_cast<uint8_t>(d.kind));
      PutU64(out, static_cast<uint64_t>(static_cast<int64_t>(d.thread)));
      PutU32(out, d.env);
    }
  }
}

std::string SerializePayload(const CheckpointData& data) {
  std::string out;
  PutU32(&out, static_cast<uint32_t>(data.outcome));
  PutU64(&out, data.subtrees.size());
  for (const CheckpointSubtree& s : data.subtrees) {
    PutU8(&out, static_cast<uint8_t>(s.state));
    PutSizeVec(&out, s.prefix);
    PutU64(&out, static_cast<uint64_t>(s.floor));
    PutSizeVec(&out, s.next_path);
    PutPorLevels(&out, s.por_levels);
    PutReport(&out, s.partial);
  }
  PutU64(&out, data.verdicts.size());
  for (const auto& [fp, verdict] : data.verdicts) {
    PutU64(&out, fp.hi);
    PutU64(&out, fp.lo);
    PutU8(&out, verdict.has_value() ? 1 : 0);
    if (verdict.has_value()) {
      PutString(&out, *verdict);
    }
  }
  return out;
}

// ---- reader (every Get bounds-checks; failure poisons the cursor) ----

struct Cursor {
  const std::string* bytes;
  size_t pos = 0;
  bool failed = false;

  bool Need(size_t n) {
    if (failed || bytes->size() - pos < n) {
      failed = true;
      return false;
    }
    return true;
  }

  // Overflow-safe bound for `count` elements of >= elem_bytes each; rejects
  // hostile counts before any reserve().
  bool NeedCount(uint64_t count, size_t elem_bytes) {
    if (failed || count > (bytes->size() - pos) / elem_bytes) {
      failed = true;
      return false;
    }
    return true;
  }

  uint8_t GetU8() {
    if (!Need(1)) return 0;
    return static_cast<uint8_t>((*bytes)[pos++]);
  }

  uint32_t GetU32() {
    if (!Need(4)) return 0;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>((*bytes)[pos++])) << (8 * i);
    }
    return v;
  }

  uint64_t GetU64() {
    if (!Need(8)) return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>((*bytes)[pos++])) << (8 * i);
    }
    return v;
  }

  std::string GetString() {
    uint64_t n = GetU64();
    if (!Need(n)) return std::string();
    std::string s = bytes->substr(pos, n);
    pos += n;
    return s;
  }

  std::vector<size_t> GetSizeVec() {
    uint64_t n = GetU64();
    std::vector<size_t> v;
    if (!NeedCount(n, 8)) return v;
    v.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      v.push_back(static_cast<size_t>(GetU64()));
    }
    return v;
  }
};

proc::Footprint GetFootprint(Cursor* c) {
  proc::Footprint fp;
  fp.recorded = c->GetU8() != 0;
  fp.opaque = c->GetU8() != 0;
  uint64_t n = c->GetU64();
  if (!c->NeedCount(n, 9)) return fp;
  fp.accesses.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    proc::Footprint::Access a;
    a.resource = c->GetU64();
    a.write = c->GetU8() != 0;
    fp.accesses.push_back(a);
  }
  return fp;
}

std::vector<detail::PorLevel> GetPorLevels(Cursor* c) {
  std::vector<detail::PorLevel> levels;
  uint64_t nlevels = c->GetU64();
  if (!c->NeedCount(nlevels, 1)) return levels;
  levels.reserve(nlevels);
  for (uint64_t i = 0; i < nlevels && !c->failed; ++i) {
    detail::PorLevel level;
    uint64_t ntried = c->GetU64();
    if (!c->NeedCount(ntried, 12)) break;
    level.tried.reserve(ntried);
    for (uint64_t j = 0; j < ntried && !c->failed; ++j) {
      detail::TriedAlt t;
      uint8_t kind = c->GetU8();
      if (kind > static_cast<uint8_t>(detail::AltKind::kProceed)) {
        c->failed = true;
        break;
      }
      t.kind = static_cast<detail::AltKind>(kind);
      t.thread = static_cast<int>(static_cast<int64_t>(c->GetU64()));
      t.footprint = GetFootprint(c);
      level.tried.push_back(std::move(t));
    }
    levels.push_back(std::move(level));
  }
  return levels;
}

Report GetReport(Cursor* c) {
  Report r;
  r.executions = c->GetU64();
  r.total_steps = c->GetU64();
  r.crashes_injected = c->GetU64();
  r.env_events_fired = c->GetU64();
  r.histories_checked = c->GetU64();
  r.histories_deduped = c->GetU64();
  r.por_pruned = c->GetU64();
  r.crash_pruned = c->GetU64();
  r.spec_states_explored = c->GetU64();
  r.truncated = c->GetU8() != 0;
  uint32_t outcome = c->GetU32();
  if (outcome > static_cast<uint32_t>(RunOutcome::kOom)) {
    c->failed = true;
    return r;
  }
  r.outcome = static_cast<RunOutcome>(outcome);
  uint64_t nviol = c->GetU64();
  if (!c->NeedCount(nviol, 24)) return r;
  r.violations.reserve(nviol);
  for (uint64_t i = 0; i < nviol && !c->failed; ++i) {
    Violation v;
    v.kind = c->GetString();
    v.detail = c->GetString();
    v.trace = c->GetString();
    uint64_t nsched = c->GetU64();
    if (!c->NeedCount(nsched, 13)) return r;
    v.schedule.reserve(nsched);
    for (uint64_t j = 0; j < nsched && !c->failed; ++j) {
      ScheduleDecision d;
      uint8_t kind = c->GetU8();
      if (kind > static_cast<uint8_t>(detail::AltKind::kProceed)) {
        c->failed = true;
        break;
      }
      d.kind = static_cast<detail::AltKind>(kind);
      d.thread = static_cast<int>(static_cast<int64_t>(c->GetU64()));
      d.env = c->GetU32();
      v.schedule.push_back(d);
    }
    r.violations.push_back(std::move(v));
  }
  return r;
}

bool ParsePayload(const std::string& payload, CheckpointData* out) {
  Cursor c{&payload};
  CheckpointData data;
  uint32_t outcome = c.GetU32();
  if (outcome > static_cast<uint32_t>(RunOutcome::kOom)) {
    return false;
  }
  data.outcome = static_cast<RunOutcome>(outcome);
  uint64_t nsub = c.GetU64();
  if (!c.NeedCount(nsub, 1)) return false;
  data.subtrees.reserve(nsub);
  for (uint64_t i = 0; i < nsub && !c.failed; ++i) {
    CheckpointSubtree s;
    uint8_t state = c.GetU8();
    if (state > static_cast<uint8_t>(CheckpointSubtree::State::kDone)) {
      return false;
    }
    s.state = static_cast<CheckpointSubtree::State>(state);
    s.prefix = c.GetSizeVec();
    s.floor = static_cast<size_t>(c.GetU64());
    s.next_path = c.GetSizeVec();
    s.por_levels = GetPorLevels(&c);
    s.partial = GetReport(&c);
    data.subtrees.push_back(std::move(s));
  }
  uint64_t nverd = c.GetU64();
  if (!c.NeedCount(nverd, 17)) return false;
  data.verdicts.reserve(nverd);
  for (uint64_t i = 0; i < nverd && !c.failed; ++i) {
    Hash128 fp;
    fp.hi = c.GetU64();
    fp.lo = c.GetU64();
    std::optional<std::string> verdict;
    if (c.GetU8() != 0) {
      verdict = c.GetString();
    }
    data.verdicts.emplace_back(fp, std::move(verdict));
  }
  if (c.failed || c.pos != payload.size()) {
    return false;
  }
  *out = std::move(data);
  return true;
}

Status IoError(const std::string& what, const std::string& path) {
  return Status::Failed(what + " " + path + ": " + std::strerror(errno));
}

}  // namespace

Status SaveCheckpoint(const std::string& path, const CheckpointData& data) {
  std::string payload = SerializePayload(data);
  std::string file;
  file.reserve(kHeaderBytes + payload.size());
  file.append(kMagic, sizeof(kMagic));
  PutU32(&file, kCheckpointVersion);
  PutU64(&file, data.config_fp);
  PutU64(&file, payload.size());
  PutU64(&file, Fnv1a64(payload));
  file.append(payload);

  // §9.1 shadow copy: the temp file becomes durable before the rename makes
  // it visible, so `path` always names a complete checkpoint (old or new).
  const std::string tmp = path + ".tmp";
  FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return IoError("checkpoint: cannot create", tmp);
  }
  bool write_ok = std::fwrite(file.data(), 1, file.size(), f) == file.size();
  write_ok = write_ok && std::fflush(f) == 0;
  write_ok = write_ok && ::fsync(::fileno(f)) == 0;
  if (std::fclose(f) != 0) {
    write_ok = false;
  }
  if (!write_ok) {
    ::unlink(tmp.c_str());
    return IoError("checkpoint: write failed for", tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return IoError("checkpoint: rename failed for", tmp);
  }
  // Durable name->inode binding: fsync the containing directory.
  std::string dir = path;
  size_t slash = dir.find_last_of('/');
  dir = slash == std::string::npos ? std::string(".") : dir.substr(0, slash + 1);
  int dfd = ::open(dir.c_str(), O_RDONLY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return Status::Ok();
}

Status LoadCheckpoint(const std::string& path, uint64_t expected_config_fp, CheckpointData* out) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("checkpoint: cannot open " + path);
  }
  std::string file;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    file.append(buf, n);
  }
  bool read_ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!read_ok) {
    return IoError("checkpoint: read failed for", path);
  }

  if (file.size() < kHeaderBytes) {
    return Status::Invalid("checkpoint: truncated header in " + path);
  }
  if (std::memcmp(file.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Invalid("checkpoint: bad magic in " + path);
  }
  Cursor header{&file, sizeof(kMagic)};
  uint32_t version = header.GetU32();
  if (version != kCheckpointVersion) {
    return Status::Invalid("checkpoint: version " + std::to_string(version) + " in " + path +
                           " (expected " + std::to_string(kCheckpointVersion) + ")");
  }
  uint64_t config_fp = header.GetU64();
  uint64_t payload_len = header.GetU64();
  uint64_t payload_sum = header.GetU64();
  if (file.size() - kHeaderBytes != payload_len) {
    return Status::Invalid("checkpoint: torn payload in " + path + " (have " +
                           std::to_string(file.size() - kHeaderBytes) + " bytes, header says " +
                           std::to_string(payload_len) + ")");
  }
  std::string payload = file.substr(kHeaderBytes);
  if (Fnv1a64(payload) != payload_sum) {
    return Status::Invalid("checkpoint: payload checksum mismatch in " + path);
  }
  if (expected_config_fp != 0 && config_fp != expected_config_fp) {
    return Status::Failed("checkpoint: " + path + " was written by a run with a different " +
                          "exploration configuration");
  }
  CheckpointData data;
  if (!ParsePayload(payload, &data)) {
    return Status::Invalid("checkpoint: malformed payload in " + path);
  }
  data.config_fp = config_fp;
  *out = std::move(data);
  return Status::Ok();
}

}  // namespace perennial::refine
