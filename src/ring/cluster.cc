#include "src/ring/cluster.h"

namespace ring {

RingCluster::RingCluster(RingOptions options)
    : runtime_(std::make_unique<RingRuntime>(options)) {
  for (uint32_t i = 0; i < options.clients; ++i) {
    clients_.push_back(std::make_unique<RingClient>(runtime_.get(), i));
  }
}

bool RingCluster::RunUntilDone(const std::function<bool()>& done,
                               uint64_t max_events) {
  auto& queue = runtime_->simulator().queue();
  const uint64_t start = queue.executed();
  while (!done()) {
    if (queue.executed() - start > max_events || !queue.RunNext()) {
      return false;
    }
  }
  return true;
}

std::string RingCluster::CheckKeyDirectories() {
  for (net::NodeId n = 0; n < runtime_->num_server_nodes(); ++n) {
    if (!runtime_->fabric().alive(n)) {
      continue;
    }
    std::string why = server(n).CheckKeyDirectory();
    if (!why.empty()) {
      return why;
    }
  }
  return "";
}

size_t RingCluster::OpsInFlight() {
  size_t ops = 0;
  for (net::NodeId n = 0; n < runtime_->num_server_nodes(); ++n) {
    if (runtime_->fabric().alive(n)) {
      ops += server(n).OpsInFlight();
    }
  }
  return ops;
}

Result<MemgestId> RingCluster::CreateMemgest(const MemgestDescriptor& desc) {
  Result<MemgestId> result = InternalError("createMemgest did not complete");
  bool done = false;
  client(0).CreateMemgest(desc, [&](Result<MemgestId> r) {
    result = std::move(r);
    done = true;
  });
  RunUntilDone([&] { return done; });
  return result;
}

Status RingCluster::SetDefaultMemgest(MemgestId id) {
  Status status = InternalError("setDefaultMemgest did not complete");
  bool done = false;
  client(0).SetDefaultMemgest(id, [&](Result<MemgestId> r) {
    status = r.ok() ? OkStatus() : r.status();
    done = true;
  });
  RunUntilDone([&] { return done; });
  return status;
}

Status RingCluster::DeleteMemgest(MemgestId id) {
  Status status = InternalError("deleteMemgest did not complete");
  bool done = false;
  client(0).DeleteMemgest(id, [&](Result<MemgestId> r) {
    status = r.ok() ? OkStatus() : r.status();
    done = true;
  });
  RunUntilDone([&] { return done; });
  return status;
}

Result<MemgestDescriptor> RingCluster::GetMemgestDescriptor(MemgestId id) {
  Result<MemgestDescriptor> result =
      InternalError("getMemgestDescriptor did not complete");
  bool done = false;
  client(0).GetMemgestDescriptor(id, [&](Result<MemgestDescriptor> r) {
    result = std::move(r);
    done = true;
  });
  RunUntilDone([&] { return done; });
  return result;
}

Status RingCluster::Put(const Key& key, const Buffer& value,
                        MemgestId memgest, uint32_t client_index) {
  Status status = InternalError("put did not complete");
  bool done = false;
  client(client_index)
      .Put(key, std::make_shared<Buffer>(value), memgest,
           [&](Status s, Version) {
             status = std::move(s);
             done = true;
           });
  RunUntilDone([&] { return done; });
  return status;
}

Result<Buffer> RingCluster::Get(const Key& key, uint32_t client_index) {
  Result<Buffer> result = InternalError("get did not complete");
  bool done = false;
  client(client_index).Get(key, [&](GetResult r) {
    if (r.status.ok()) {
      result = r.data ? *r.data : Buffer{};
    } else {
      result = r.status;
    }
    done = true;
  });
  RunUntilDone([&] { return done; });
  return result;
}

Status RingCluster::Move(const Key& key, MemgestId dst,
                         uint32_t client_index) {
  Status status = InternalError("move did not complete");
  bool done = false;
  client(client_index).Move(key, dst, [&](Status s, Version) {
    status = std::move(s);
    done = true;
  });
  RunUntilDone([&] { return done; });
  return status;
}

Status RingCluster::Delete(const Key& key, uint32_t client_index) {
  Status status = InternalError("delete did not complete");
  bool done = false;
  client(client_index).Delete(key, [&](Status s) {
    status = std::move(s);
    done = true;
  });
  RunUntilDone([&] { return done; });
  return status;
}

void RingCluster::RunFor(sim::SimTime duration) {
  runtime_->simulator().RunUntil(runtime_->simulator().now() + duration);
}

void RingCluster::KillNode(net::NodeId node, bool force_detect) {
  if (force_detect) {
    runtime_->membership().ForceDetect(node);
  } else {
    runtime_->membership().InjectFailure(node);
  }
}

}  // namespace ring
