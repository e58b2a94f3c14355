// Standalone TQL network service over the demo catalog (Faculty,
// Events). Binds, prints the chosen port, and serves until SIGINT /
// SIGTERM or stdin EOF, then drains gracefully and prints final stats.
//
//   $ ./tempus_server --port 7440 --queries 4 --deadline-ms 5000 &
//   tempus_server listening on 127.0.0.1:7440
//   $ ./tempus_client --port 7440 -c 'range of e is Events ...'
//
// Flags: --port N (0 = ephemeral)    --sessions N   --queries N
//        --queue N   --deadline-ms N (0 = none)

#include <poll.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "datagen/faculty_gen.h"
#include "datagen/interval_gen.h"
#include "exec/engine.h"
#include "server/server.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

tempus::Engine MakeDemoEngine() {
  using namespace tempus;
  Engine engine;
  FacultyWorkloadConfig faculty_config;
  faculty_config.faculty_count = 500;
  faculty_config.continuous = true;
  Result<TemporalRelation> faculty =
      GenerateFaculty("Faculty", faculty_config);
  if (faculty.ok()) {
    (void)engine.mutable_integrity()->AddChronologicalDomain(
        "Faculty", FacultyRankDomain(true));
    (void)engine.RegisterValidated(std::move(faculty).value());
  }
  IntervalWorkloadConfig events_config;
  events_config.count = 2000;
  Result<TemporalRelation> events =
      GenerateIntervalRelation("Events", events_config);
  if (events.ok()) {
    (void)engine.mutable_catalog()->Register(std::move(events).value());
  }
  return engine;
}

bool ParseSizeFlag(int argc, char** argv, int* i, const char* name,
                   unsigned long* out) {
  if (std::strcmp(argv[*i], name) != 0) return false;
  if (*i + 1 >= argc) {
    std::fprintf(stderr, "error: %s needs a value\n", name);
    std::exit(1);
  }
  char* end = nullptr;
  *out = std::strtoul(argv[*i + 1], &end, 10);
  if (end == argv[*i + 1] || *end != '\0') {
    std::fprintf(stderr, "error: bad value for %s: %s\n", name, argv[*i + 1]);
    std::exit(1);
  }
  *i += 1;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  unsigned long port = 0;
  unsigned long sessions = 64;
  unsigned long queries = 4;
  unsigned long queue = 8;
  unsigned long deadline_ms = 0;
  for (int i = 1; i < argc; ++i) {
    if (ParseSizeFlag(argc, argv, &i, "--port", &port) ||
        ParseSizeFlag(argc, argv, &i, "--sessions", &sessions) ||
        ParseSizeFlag(argc, argv, &i, "--queries", &queries) ||
        ParseSizeFlag(argc, argv, &i, "--queue", &queue) ||
        ParseSizeFlag(argc, argv, &i, "--deadline-ms", &deadline_ms)) {
      continue;
    }
    std::fprintf(stderr,
                 "usage: %s [--port N] [--sessions N] [--queries N] "
                 "[--queue N] [--deadline-ms N]\n",
                 argv[0]);
    return 1;
  }

  tempus::Engine engine = MakeDemoEngine();
  tempus::ServerOptions options;
  options.port = static_cast<uint16_t>(port);
  options.max_sessions = sessions;
  options.max_concurrent_queries = queries;
  options.admission_queue = queue;
  options.default_deadline_ms = static_cast<uint32_t>(deadline_ms);
  tempus::TqlServer server(&engine, options);
  tempus::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "error: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("tempus_server listening on %s:%u\n", options.host.c_str(),
              server.port());
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  // Park until a signal arrives or — when stdin is a pipe or terminal —
  // stdin closes, so a parent process can stop the server by closing the
  // pipe. Runs started with </dev/null wait on signals alone. Polled
  // with a timeout so a signal is noticed even if glibc restarts reads.
  struct stat stdin_stat {};
  const bool watch_stdin =
      ::fstat(STDIN_FILENO, &stdin_stat) == 0 &&
      (S_ISFIFO(stdin_stat.st_mode) || ::isatty(STDIN_FILENO) == 1);
  while (g_stop == 0) {
    if (!watch_stdin) {
      ::poll(nullptr, 0, 200);
      continue;
    }
    pollfd stdin_poll{};
    stdin_poll.fd = STDIN_FILENO;
    stdin_poll.events = POLLIN;
    const int ready = ::poll(&stdin_poll, 1, 200);
    if (ready < 0 && errno != EINTR) break;
    if (ready > 0 && (stdin_poll.revents & (POLLIN | POLLHUP)) != 0) {
      char discard[256];
      if (::read(STDIN_FILENO, discard, sizeof(discard)) <= 0) break;
    }
  }

  server.Shutdown();
  std::printf("%s\n", server.StatsJson().c_str());
  return 0;
}
