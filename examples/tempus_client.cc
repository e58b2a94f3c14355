// Command-line client for a running tempus_server. Sends one request
// over the wire protocol and prints the response; exits non-zero on any
// error (connection, rejection, deadline expiry, or TQL failure).
//
//   $ ./tempus_client --port 7440 -c 'range of e is Events
//                                     retrieve (e.Key) where e.Key < 5'
//   $ ./tempus_client --port 7440 --deadline-ms 100 -f query.tql
//   $ ./tempus_client --port 7440 --stats
//
// Flags: --host A (default 127.0.0.1)   --port N (required)
//        --deadline-ms N   --metrics (print metrics JSON)
//        -c '<tql>' | -f <file> | --stats

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "server/client.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--host A] --port N [--deadline-ms N] "
               "[--metrics] (-c '<tql>' | -f <file> | --stats)\n",
               argv0);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  unsigned long port = 0;
  tempus::QueryCallOptions call;
  bool print_metrics = false;
  bool want_stats = false;
  std::string tql;
  for (int i = 1; i < argc; ++i) {
    const bool has_value = i + 1 < argc;
    if (std::strcmp(argv[i], "--host") == 0 && has_value) {
      host = argv[++i];
    } else if (std::strcmp(argv[i], "--port") == 0 && has_value) {
      port = std::strtoul(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0 && has_value) {
      call.deadline_ms =
          static_cast<uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      print_metrics = true;
    } else if (std::strcmp(argv[i], "--stats") == 0) {
      want_stats = true;
    } else if (std::strcmp(argv[i], "-c") == 0 && has_value) {
      tql = argv[++i];
    } else if (std::strcmp(argv[i], "-f") == 0 && has_value) {
      std::ifstream file(argv[++i]);
      if (!file) {
        std::fprintf(stderr, "error: cannot open %s\n", argv[i]);
        return 1;
      }
      std::ostringstream contents;
      contents << file.rdbuf();
      tql = contents.str();
    } else {
      return Usage(argv[0]);
    }
  }
  if (port == 0 || port > 65535 || (tql.empty() && !want_stats)) {
    return Usage(argv[0]);
  }

  tempus::Result<tempus::TqlClient> client =
      tempus::TqlClient::Connect(host, static_cast<uint16_t>(port));
  if (!client.ok()) {
    std::fprintf(stderr, "error: %s\n", client.status().ToString().c_str());
    return 1;
  }

  if (want_stats) {
    tempus::Result<std::string> stats = client->Stats();
    if (!stats.ok()) {
      std::fprintf(stderr, "error: %s\n", stats.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", stats->c_str());
    return 0;
  }

  tempus::Result<tempus::QueryResponse> response = client->Query(tql, call);
  if (!response.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 response.status().ToString().c_str());
    return 1;
  }
  std::printf("-- %s %s\n%s", response->relation_name.c_str(),
              response->schema.c_str(), response->csv.c_str());
  if (print_metrics) {
    std::printf("-- metrics --\n%s\n", response->metrics_json.c_str());
  }
  return 0;
}
