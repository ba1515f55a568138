// Mailboat: a concurrent, crash-safe mail server library (paper §8).
//
// Abstract state: one mailbox per user, mapping message ids to contents.
// The implementation stores each mailbox as a directory with one file per
// message, and spools deliveries in a separate directory before atomically
// hard-linking them into the mailbox (the shadow-copy pattern on files):
//
//   Pickup/Delete — serialized by a per-user lock, so a message listed by
//     Pickup cannot vanish before it is read.
//   Pickup/Deliver — deliveries never modify existing files; a message
//     becomes visible in one atomic Link, so readers never observe a
//     partially written message.
//   Deliver/Deliver — threads pick random ids and retry on collision, both
//     for the spool file (exclusive Create) and the mailbox entry (Link
//     fails if the destination exists).
//   Recover — unlinks leftover spool files (freeing space; the abstract
//     state does not mandate it) and rebuilds the volatile locks.
//
// The library runs against any goosefs::Filesys: the modeled GooseFs under
// the refinement checker, or the POSIX backend for real execution (the
// Figure 11 benchmark and the example servers).
#ifndef PERENNIAL_SRC_MAILBOAT_MAILBOAT_H_
#define PERENNIAL_SRC_MAILBOAT_MAILBOAT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/base/rand.h"
#include "src/cap/bounded_lease.h"
#include "src/goose/mutex.h"
#include "src/goose/world.h"
#include "src/goosefs/filesys.h"
#include "src/mailboat/mail_api.h"
#include "src/proc/task.h"

namespace perennial::mailboat {

struct Message {
  std::string id;
  std::string contents;

  friend bool operator==(const Message&, const Message&) = default;
};

// ChunkReader (the streaming Deliver input — §8.3: concurrent modification
// of the slice during delivery is undefined behavior, detected by the Goose
// heap) lives in mail_api.h so every MailApi backend can stream.

class Mailboat : public MailApi {
 public:
  struct Options {
    uint64_t num_users = 100;
    uint64_t chunk_size = 4096;  // deliver append granularity (paper: 4 KB)
    uint64_t read_size = 512;    // pickup read granularity (paper: 512 B)
    uint64_t rng_seed = 1;       // id randomness (deterministic per seed)
    // fsync the spooled message before linking it into the mailbox. With a
    // deferred-durability file system this is load-bearing: without it, a
    // crash can leave a *linked* message whose contents were never written
    // back (the classic zero-length-mail bug).
    bool sync_on_deliver = true;
  };
  struct Mutations {
    // §9.5's first bug: the read loop never advances its offset, so any
    // message of at least read_size bytes loops forever.
    bool pickup_512_loop = false;
    // Deliver writes straight into the mailbox (no spool + atomic link):
    // concurrent pickups can observe a partially written message.
    bool deliver_in_place = false;
    // Recovery "cleans up" the mailboxes too, destroying delivered mail.
    bool recovery_deletes_mail = false;
  };

  Mailboat(goose::World* world, goosefs::Filesys* fs, Options options, Mutations mutations);
  Mailboat(goose::World* world, goosefs::Filesys* fs, Options options)
      : Mailboat(world, fs, options, Mutations{}) {}

  // The fixed directory layout: spool/ plus one directory per user. Pass to
  // GooseFs's constructor or PosixFilesys::EnsureDirs before use.
  static std::vector<std::string> DirLayout(uint64_t num_users);

  // Lists the user's mail and *acquires the user's pickup/delete lock*;
  // the caller must eventually Unlock (the SMTP/POP3 frontends call Pickup
  // on connect and Unlock on disconnect). On error the lock has been
  // released and no lease is held.
  proc::Task<Result<std::vector<Message>>> Pickup(uint64_t user) override;

  // Durably delivers a message, returning its id. Safe to call from any
  // thread at any time, without locks. On error the delivery left no acked
  // state: partial spool/mailbox files are unlinked best-effort, and
  // anything that survives (an unlink that itself failed) is reaped by
  // Recover or is an unlisted mailbox entry that was never acked.
  proc::Task<Result<std::string>> Deliver(uint64_t user, const goosefs::Bytes& msg) override;
  // As Deliver, reading the body through `read_chunk` (`len` bytes total);
  // streams straight into the spool file, no intermediate body copy.
  proc::Task<Result<std::string>> DeliverChunked(uint64_t user, uint64_t len,
                                                 ChunkReader read_chunk) override;

  // Deletes one message; the caller must hold the user's lock and pass an
  // id previously returned by Pickup (anything else is undefined). A non-ok
  // status is an I/O failure; the message may remain.
  proc::Task<Status> Delete(uint64_t user, const std::string& id) override;

  proc::Task<void> Unlock(uint64_t user) override;

  // Post-crash: removes leftover spool files and rebuilds volatile state.
  proc::Task<void> Recover() override;

  uint64_t num_users() const override { return options_.num_users; }

  // Host-level state that survives a modeled crash, for the checker's
  // post-crash fingerprint: the id generator (World::Crash does not reset
  // it). The per-user locks and pickup leases are rebuilt by Recover's
  // first step, before anything can read them.
  void MixSurvivingState(Hasher128* h) {
    std::scoped_lock lock(rng_mu_);
    rng_.MixState(h);
  }

 private:
  static std::string UserDir(uint64_t user) { return "user" + std::to_string(user); }
  // Hot paths use the pre-built name (a Deliver used to assemble
  // "user<N>" twice per message; Pickup once per message read).
  const std::string& UserDirRef(uint64_t user) const { return user_dirs_[user]; }
  uint64_t NextRandomId();
  void InitVolatile();

  goose::World* world_;
  goosefs::Filesys* fs_;
  Options options_;
  Mutations mutations_;
  std::vector<std::unique_ptr<goose::Mutex>> user_locks_;
  std::vector<std::string> user_dirs_;  // immutable after construction
  // §8.3's leasing strategy, enforced at runtime: the lock holder keeps a
  // lower-bound lease on the mailbox directory between Pickup and Unlock,
  // so deletes of un-listed names are capability violations.
  cap::BoundedLeaseRegistry dir_leases_;
  std::mutex pickup_leases_mu_;  // host-level guard (native benchmark threads)
  std::map<uint64_t, cap::BoundedLease> pickup_leases_;  // volatile, per user
  std::mutex rng_mu_;  // host-level: id generation is not a modeled effect
  Rng rng_;
  // DPOR footprints for the shared state above (DESIGN.md §10): the rng
  // draw order determines the ids every Deliver picks, and the pickup-lease
  // table is read/written across Pickup/Delete/Unlock, so steps touching
  // them must never look independent to the sleep-set reduction.
  uint64_t rng_res_ = 0;
  uint64_t lease_res_seed_ = 0;
};

}  // namespace perennial::mailboat

#endif  // PERENNIAL_SRC_MAILBOAT_MAILBOAT_H_
