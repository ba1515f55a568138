// Checker harness for Mailboat: binds the library over the modeled GooseFs
// to MailSpec, with script-driven clients (a Delete must reference the ids
// its own Pickup returned, so clients are dynamic programs).
#ifndef PERENNIAL_SRC_MAILBOAT_MAIL_HARNESS_H_
#define PERENNIAL_SRC_MAILBOAT_MAIL_HARNESS_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/goosefs/goosefs.h"
#include "src/refine/explorer.h"
#include "src/mailboat/mail_spec.h"
#include "src/mailboat/mailboat.h"

namespace perennial::mailboat {

struct MailAction {
  enum class Kind {
    kDeliver,               // deliver `contents` to `user`
    kPickupUnlock,          // read the mailbox, then release the lock
    kPickupDeleteAllUnlock  // read, delete everything listed, release
  };
  Kind kind = Kind::kDeliver;
  uint64_t user = 0;
  std::string contents;
};

struct MailHarnessOptions {
  uint64_t num_users = 1;
  uint64_t chunk_size = 2;  // small: keeps checker state spaces tight
  uint64_t read_size = 2;
  std::vector<std::vector<MailAction>> client_scripts;
  Mailboat::Mutations mutations;
  bool observe_mailboxes = true;
  // Deferred-durability extension: buffer file data until Sync.
  bool deferred_durability = false;
  bool sync_on_deliver = true;
  // Soundness control for footprint-equivalence tests: run the GooseFs with
  // blanket-opaque footprints (no DPOR pruning around fs steps).
  bool opaque_fs_footprints = false;
};

namespace detail {

inline proc::Task<void> RunScript(std::vector<MailAction> script,
                                  refine::OpRunner<MailSpec>* runner) {
  for (const MailAction& action : script) {
    switch (action.kind) {
      case MailAction::Kind::kDeliver: {
        (void)co_await runner->Run(MailSpec::MakeDeliver(action.user, action.contents));
        break;
      }
      case MailAction::Kind::kPickupUnlock: {
        (void)co_await runner->Run(MailSpec::MakePickup(action.user));
        (void)co_await runner->Run(MailSpec::MakeUnlock(action.user));
        break;
      }
      case MailAction::Kind::kPickupDeleteAllUnlock: {
        MailSpec::Ret listing = co_await runner->Run(MailSpec::MakePickup(action.user));
        for (const auto& [id, contents] : listing.msgs) {
          (void)co_await runner->Run(MailSpec::MakeDelete(action.user, id));
        }
        (void)co_await runner->Run(MailSpec::MakeUnlock(action.user));
        break;
      }
    }
  }
}

}  // namespace detail

inline refine::Instance<MailSpec> MakeMailInstance(const MailHarnessOptions& options) {
  struct Bundle {
    goose::World world;
    std::unique_ptr<goosefs::GooseFs> fs;
    std::unique_ptr<Mailboat> mail;
  };
  auto bundle = std::make_shared<Bundle>();
  bundle->fs = std::make_unique<goosefs::GooseFs>(
      &bundle->world, Mailboat::DirLayout(options.num_users),
      goosefs::GooseFs::Options{.deferred_durability = options.deferred_durability,
                                .opaque_footprints = options.opaque_fs_footprints});
  Mailboat::Options mail_options;
  mail_options.num_users = options.num_users;
  mail_options.chunk_size = options.chunk_size;
  mail_options.read_size = options.read_size;
  mail_options.rng_seed = 12345;
  mail_options.sync_on_deliver = options.sync_on_deliver;
  bundle->mail = std::make_unique<Mailboat>(&bundle->world, bundle->fs.get(), mail_options,
                                            options.mutations);
  Mailboat* mail = bundle->mail.get();

  refine::Instance<MailSpec> inst;
  inst.keep_alive = bundle;
  inst.world = &bundle->world;
  inst.run_op = [mail](int, uint64_t, MailSpec::Op op) -> proc::Task<MailSpec::Ret> {
    MailSpec::Ret ret;
    switch (op.kind) {
      case MailSpec::Kind::kPickup: {
        // The modeled GooseFs never returns I/O errors on these paths, so
        // a failure here is a harness bug, not a disk fault.
        Result<std::vector<Message>> messages = co_await mail->Pickup(op.user);
        PCC_ENSURE(messages.ok(), "harness: pickup failed");
        for (Message& m : messages.value()) {
          ret.msgs.emplace_back(std::move(m.id), std::move(m.contents));
        }
        break;
      }
      case MailSpec::Kind::kDeliver: {
        Result<std::string> id = co_await mail->Deliver(op.user, goosefs::BytesOfString(op.arg));
        PCC_ENSURE(id.ok(), "harness: deliver failed");
        ret.id = std::move(id.value());
        break;
      }
      case MailSpec::Kind::kDelete: {
        Status s = co_await mail->Delete(op.user, op.arg);
        PCC_ENSURE(s.ok(), "harness: delete failed");
        break;
      }
      case MailSpec::Kind::kUnlock: {
        co_await mail->Unlock(op.user);
        break;
      }
    }
    co_return ret;
  };
  inst.recover = [mail](refine::History<MailSpec>*) -> proc::Task<void> {
    co_await mail->Recover();
  };
  goose::World* world = &bundle->world;
  inst.mix_surviving_state = [world, mail](Hasher128* h) {
    world->MixSurvivingState(h);
    mail->MixSurvivingState(h);
  };
  for (const std::vector<MailAction>& script : options.client_scripts) {
    inst.client_programs.push_back([script](refine::OpRunner<MailSpec>* runner) {
      return detail::RunScript(script, runner);
    });
  }
  if (options.observe_mailboxes) {
    uint64_t num_users = options.num_users;
    inst.observer_program = [num_users](refine::OpRunner<MailSpec>* runner) -> proc::Task<void> {
      for (uint64_t u = 0; u < num_users; ++u) {
        (void)co_await runner->Run(MailSpec::MakePickup(u));
        (void)co_await runner->Run(MailSpec::MakeUnlock(u));
      }
    };
  }
  return inst;
}

}  // namespace perennial::mailboat

#endif  // PERENNIAL_SRC_MAILBOAT_MAIL_HARNESS_H_
