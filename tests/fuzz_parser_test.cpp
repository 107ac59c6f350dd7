// Seed-corpus randomized fuzz tests for the two wire-format parsers:
// http::parse_request and ftp::parse_command / parse_port_arg.
//
// Every corpus file under tests/corpus/ is first replayed verbatim, then
// mutated (byte flips, splices, truncations, duplications, random inserts)
// by a deterministic PRNG and re-fed to the parser.  Each mutant is checked
// against the parsers' contracts:
//
//   parse_request   kIncomplete consumes nothing; kComplete consumes at
//                   most what was readable and yields a sanitized path
//                   (absolute, no NUL, no ".." escape); parsing is a pure
//                   function of the input bytes (same bytes => same
//                   outcome, field for field); and it decides every head as
//                   the proxy's parse_request_head does (both read one
//                   grammar, http/head_grammar.hpp).
//   parse_command   accepted verbs are 1-4 uppercase letters; arguments
//                   come back trimmed; accepted commands survive a
//                   format/re-parse round trip.
//   parse_port_arg  accepted values have in-range octets and a non-zero
//                   port, and round-trip through format_pasv.
//
// Failures print the PRNG seed and the offending input (escaped).  Replay a
// seed with:  ./fuzz_parser_test --seed=<N>
// which runs every fuzz case under that single seed instead of the default
// seed range.  This file has its own main() to support the flag.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/byte_buffer.hpp"
#include "common/string_util.hpp"
#include "ftp/command.hpp"
#include "http/request_parser.hpp"
#include "http/response_parser.hpp"

namespace {

uint64_t g_seed_override = 0;
bool g_has_seed_override = false;

// ---- corpus loading --------------------------------------------------------

std::vector<std::string> load_corpus(const std::string& subdir) {
  const std::filesystem::path dir =
      std::filesystem::path(COPS_SOURCE_DIR) / "tests" / "corpus" / subdir;
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());  // deterministic order
  std::vector<std::string> corpus;
  for (const auto& p : paths) {
    std::ifstream in(p, std::ios::binary);
    corpus.emplace_back(std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>());
  }
  return corpus;
}

std::string escape(std::string_view bytes, size_t max_len = 200) {
  std::string out;
  for (size_t i = 0; i < bytes.size() && i < max_len; ++i) {
    const auto c = static_cast<unsigned char>(bytes[i]);
    if (c == '\\') {
      out += "\\\\";
    } else if (c >= 0x20 && c < 0x7f) {
      out += static_cast<char>(c);
    } else if (c == '\r') {
      out += "\\r";
    } else if (c == '\n') {
      out += "\\n\n";
    } else {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\x%02x", c);
      out += buf;
    }
  }
  if (bytes.size() > max_len) out += "...";
  return out;
}

// ---- mutation engine -------------------------------------------------------

std::string mutate(std::mt19937_64& rng,
                   const std::vector<std::string>& corpus) {
  std::string input = corpus[rng() % corpus.size()];
  if (rng() % 4 == 0) {
    // Splice: concatenate a prefix of this entry with a suffix of another.
    const std::string& other = corpus[rng() % corpus.size()];
    const size_t cut_a = input.empty() ? 0 : rng() % (input.size() + 1);
    const size_t cut_b = other.empty() ? 0 : rng() % (other.size() + 1);
    input = input.substr(0, cut_a) + other.substr(cut_b);
  }
  const int mutations = static_cast<int>(rng() % 4);
  for (int m = 0; m < mutations && !input.empty(); ++m) {
    const size_t pos = rng() % input.size();
    switch (rng() % 5) {
      case 0:  // flip a byte
        input[pos] = static_cast<char>(rng() % 256);
        break;
      case 1:  // insert a random byte
        input.insert(input.begin() + static_cast<long>(pos),
                     static_cast<char>(rng() % 256));
        break;
      case 2:  // delete a short range
        input.erase(pos, 1 + rng() % 8);
        break;
      case 3: {  // duplicate a short range (grows headers, repeats tokens)
        const size_t len = std::min<size_t>(1 + rng() % 16, input.size() - pos);
        input.insert(pos, input.substr(pos, len));
        break;
      }
      default:  // truncate
        input.resize(pos);
        break;
    }
  }
  return input;
}

// ---- HTTP invariants -------------------------------------------------------

// The server's parse_request and the proxy's parse_request_head must decide
// the same bytes alike: accept or reject, the reject status, the body
// delimiter and length, keep-alive and expect-continue.  The proxy answers
// every rejection (400 for start-line garbage and an oversized head, where
// the server closes silently).  Excluded are the decisions only the server
// makes, all taken after the shared grammar has accepted the head: unknown
// methods and unsanitisable paths (kMalformed), and the body limit (413).
// The body is judged as the proxy relays it: a Content-Length countdown, or
// a ChunkPassthrough over the chunked stream.
void check_server_proxy_agreement(const std::string& input) {
  using cops::http::BodyDelim;
  using cops::http::ParseOutcome;
  using cops::http::StatusCode;
  const cops::http::ParseLimits limits;

  cops::ByteBuffer proxy_buf{std::string_view(input)};
  cops::http::MessageHead head;
  StatusCode proxy_status = StatusCode::kOk;
  const auto proxy = cops::http::parse_request_head(proxy_buf, head, limits,
                                                    &proxy_status);
  cops::ByteBuffer server_buf{std::string_view(input)};
  cops::http::HttpRequest req;
  cops::http::ParseEvents events;
  const auto server =
      cops::http::parse_request(server_buf, req, limits, events);
  const size_t consumed = input.size() - server_buf.readable();

  switch (proxy) {
    case cops::http::HeadParseStatus::kNeedMore:
      ASSERT_EQ(server, ParseOutcome::kIncomplete);
      return;
    case cops::http::HeadParseStatus::kMalformed:
      if (server == ParseOutcome::kMalformed) {
        ASSERT_EQ(proxy_status, StatusCode::kBadRequest);
      } else {
        ASSERT_EQ(server, ParseOutcome::kReject) << "proxy rejects, server "
                                                    "accepts";
        ASSERT_EQ(events.reject_status, proxy_status);
      }
      return;
    case cops::http::HeadParseStatus::kOk:
      break;
  }
  const size_t head_len = input.size() - proxy_buf.readable();
  const std::string_view rest = std::string_view(input).substr(head_len);
  if (server == ParseOutcome::kMalformed) {
    const std::string_view target = head.target;
    const bool path_ok =
        target == "*" ||
        !cops::http::sanitize_path(target.substr(0, target.find('?')))
             .empty();
    ASSERT_TRUE(!cops::http::parse_method(head.method) || !path_ok)
        << "the server closed a head the proxy accepts";
    return;
  }
  if (server == ParseOutcome::kReject &&
      events.reject_status == StatusCode::kPayloadTooLarge) {
    ASSERT_NE(head.delim, BodyDelim::kNone);
    if (head.delim == BodyDelim::kContentLength) {
      ASSERT_GT(head.content_length, limits.max_body_bytes);
    }
    return;
  }
  ASSERT_EQ(req.keep_alive(), head.keep_alive);
  switch (head.delim) {
    case BodyDelim::kNone:
      ASSERT_EQ(server, ParseOutcome::kComplete);
      ASSERT_EQ(consumed, head_len);
      ASSERT_TRUE(req.body.empty());
      ASSERT_FALSE(head.expect_continue);
      break;
    case BodyDelim::kContentLength:
      if (rest.size() < head.content_length) {
        ASSERT_EQ(server, ParseOutcome::kIncomplete);
        ASSERT_EQ(events.needs_continue, head.expect_continue);
      } else {
        ASSERT_EQ(server, ParseOutcome::kComplete);
        ASSERT_EQ(consumed, head_len + head.content_length);
        ASSERT_EQ(req.body, rest.substr(0, head.content_length));
      }
      break;
    case BodyDelim::kChunked: {
      using Status = cops::http::ChunkPassthrough::Status;
      cops::http::ChunkPassthrough relay;
      size_t relayed = 0;
      switch (relay.feed(rest, &relayed)) {
        case Status::kDone:
          ASSERT_EQ(server, ParseOutcome::kComplete);
          ASSERT_EQ(consumed, head_len + relayed);
          ASSERT_EQ(req.body.size(), relay.decoded_bytes());
          break;
        case Status::kNeedMore:
          ASSERT_EQ(server, ParseOutcome::kIncomplete);
          ASSERT_EQ(events.needs_continue, head.expect_continue);
          break;
        case Status::kBadSyntax:
        case Status::kBadTrailer:
          ASSERT_EQ(server, ParseOutcome::kReject);
          ASSERT_EQ(events.reject_status, StatusCode::kBadRequest);
          break;
        case Status::kTooLarge:
          FAIL() << "a chunk-size overflow must be the server's 413 too";
      }
      break;
    }
    case BodyDelim::kToClose:
      FAIL() << "a request body never runs to close";
  }
}

void check_http_invariants(const std::string& input) {
  SCOPED_TRACE("input:\n" + escape(input));
  cops::ByteBuffer buf{std::string_view(input)};
  cops::http::HttpRequest req;
  const size_t before = buf.readable();
  const auto outcome = cops::http::parse_request(buf, req);
  switch (outcome) {
    case cops::http::ParseOutcome::kIncomplete:
      // Contract: nothing consumed, byte for byte.
      ASSERT_EQ(buf.readable(), before);
      ASSERT_EQ(buf.view(), std::string_view(input));
      break;
    case cops::http::ParseOutcome::kComplete: {
      const size_t consumed = before - buf.readable();
      ASSERT_GT(consumed, 0u);
      ASSERT_LE(consumed, before);
      // Sanitized path: absolute, NUL-free, cannot climb out of the root.
      if (req.target != "*") {
        ASSERT_FALSE(req.path.empty());
        ASSERT_EQ(req.path.front(), '/');
        ASSERT_EQ(req.path.find('\0'), std::string::npos);
        // No segment may be exactly ".." (a *filename* like "..." that
        // merely contains dots is legal).
        for (const auto& seg : cops::split(req.path.substr(1), '/')) {
          ASSERT_NE(seg, "..");
        }
      }
      for (const auto& [name, value] : req.headers) {
        ASSERT_EQ(name, cops::to_lower(name)) << "header not lower-cased";
      }
      // Purity: re-parsing exactly the consumed bytes reproduces the
      // request field for field.
      cops::ByteBuffer again{std::string_view(input).substr(0, consumed)};
      cops::http::HttpRequest req2;
      ASSERT_EQ(cops::http::parse_request(again, req2),
                cops::http::ParseOutcome::kComplete);
      ASSERT_EQ(again.readable(), 0u);
      ASSERT_EQ(req2.method, req.method);
      ASSERT_EQ(req2.target, req.target);
      ASSERT_EQ(req2.path, req.path);
      ASSERT_EQ(req2.query, req.query);
      ASSERT_EQ(req2.body, req.body);
      ASSERT_EQ(req2.headers, req.headers);
      break;
    }
    case cops::http::ParseOutcome::kMalformed:
      break;  // buffer state unspecified; caller closes
    case cops::http::ParseOutcome::kReject:
      FAIL() << "the 3-arg wrapper must fold kReject into kMalformed";
  }
  // Determinism of the outcome itself.
  cops::ByteBuffer fresh{std::string_view(input)};
  cops::http::HttpRequest ignored;
  ASSERT_EQ(cops::http::parse_request(fresh, ignored), outcome);
  check_server_proxy_agreement(input);
}

// ---- ChunkedDecoder invariants ---------------------------------------------

// Seed streams for the chunk-decoder fuzz: the body section only (no HTTP
// headers), valid and near-valid.
const std::vector<std::string>& chunked_seed_streams() {
  static const std::vector<std::string> seeds = {
      "5\r\nhello\r\n0\r\n\r\n",
      "10\r\n0123456789abcdef\r\n5;ext=v\r\nhello\r\n0\r\n\r\n",
      "1\r\nx\r\n1\r\ny\r\n1\r\nz\r\n0\r\nX-Trailer: ok\r\n\r\n",
      "A \t\r\n0123456789\r\n0\r\n\r\n",
      "0\r\n\r\n",
      "ffffffffffffffff1\r\n",
      "0\r\nContent-Length: 5\r\n\r\n",
      "0\r\nX-A: a\nb\r\n\r\n",
      "0\r\nX-A : 1\r\n\r\n",
      "3\r\nabcXX",
      "zz\r\n",
  };
  return seeds;
}

// Split invariance: decoding the same byte stream one-shot and under any
// PRNG-chosen segmentation must agree on status and decoded body (and on
// the consumed total when decoding finishes).
void check_chunked_decoder_invariants(const std::string& input,
                                      std::mt19937_64& rng) {
  SCOPED_TRACE("chunk stream:\n" + escape(input));
  using Status = cops::http::ChunkedDecoder::Status;
  const cops::http::ParseLimits limits;

  cops::http::ChunkedDecoder oneshot;
  std::string body_oneshot;
  size_t consumed_oneshot = 0;
  const Status status_oneshot =
      oneshot.feed(input, &consumed_oneshot, body_oneshot, limits);

  cops::http::ChunkedDecoder stepped;
  std::string body_stepped;
  std::string pending;
  size_t offered = 0;
  size_t consumed_stepped = 0;
  Status status_stepped = Status::kNeedMore;
  while (offered < input.size() || pending.empty()) {
    const size_t take =
        std::min<size_t>(1 + rng() % 7, input.size() - offered);
    pending.append(input, offered, take);
    offered += take;
    size_t consumed = 0;
    status_stepped = stepped.feed(pending, &consumed, body_stepped, limits);
    ASSERT_LE(consumed, pending.size());
    consumed_stepped += consumed;
    pending.erase(0, consumed);
    if (status_stepped != Status::kNeedMore || offered >= input.size()) break;
  }
  ASSERT_EQ(status_stepped, status_oneshot) << "segmentation changed outcome";
  if (status_oneshot == Status::kDone ||
      status_oneshot == Status::kNeedMore) {
    ASSERT_EQ(body_stepped, body_oneshot) << "segmentation changed the body";
  }
  if (status_oneshot == Status::kDone) {
    ASSERT_EQ(consumed_stepped, consumed_oneshot)
        << "segmentation changed the consumed total";
    ASSERT_EQ(stepped.decoded_bytes(), oneshot.decoded_bytes());
  }
}

// ---- upstream response-head invariants -------------------------------------
//
// parse_response_head treats the backend as untrusted (a compromised origin
// is a smuggling vector through the proxy), so its contract is checked on
// arbitrary bytes: kNeedMore consumes nothing; kOk consumes exactly the
// head, yields an in-range status and lowercased lookup keys, reproduces
// field-for-field on a re-parse of the consumed bytes, and any shorter
// prefix of that head is kNeedMore (the streaming relay feeds partial
// reads); the outcome is a pure function of the input.  Both head_request
// polarities run — a reply to HEAD must come back bodiless regardless of
// its framing headers.

void check_response_head_invariants(const std::string& input) {
  SCOPED_TRACE("response input:\n" + escape(input));
  using Status = cops::http::HeadParseStatus;
  const cops::http::ParseLimits limits;
  for (const bool head_request : {false, true}) {
    SCOPED_TRACE(head_request ? "reply-to-HEAD" : "reply-to-GET");
    cops::ByteBuffer buf{std::string_view(input)};
    cops::http::MessageHead head;
    const size_t before = buf.readable();
    const auto status =
        cops::http::parse_response_head(buf, head, limits, head_request);
    switch (status) {
      case Status::kNeedMore:
        ASSERT_EQ(buf.readable(), before);
        ASSERT_EQ(buf.view(), std::string_view(input));
        break;
      case Status::kOk: {
        const size_t consumed = before - buf.readable();
        ASSERT_GT(consumed, 0u);
        ASSERT_LE(consumed, before);
        ASSERT_GE(head.status, 100);
        ASSERT_LE(head.status, 999);
        ASSERT_FALSE(head.status_line.empty());
        ASSERT_EQ(head.status_line.find('\r'), std::string::npos);
        ASSERT_EQ(head.status_line.find('\n'), std::string::npos);
        for (const auto& field : head.headers) {
          ASSERT_EQ(field.lname, cops::to_lower(field.name));
        }
        if (head_request) {
          ASSERT_EQ(head.delim, cops::http::BodyDelim::kNone)
              << "HEAD reply must be bodiless";
        }
        // Purity: re-parsing exactly the consumed bytes reproduces the
        // head field for field.
        cops::ByteBuffer again{std::string_view(input).substr(0, consumed)};
        cops::http::MessageHead head2;
        ASSERT_EQ(cops::http::parse_response_head(again, head2, limits,
                                                  head_request),
                  Status::kOk);
        ASSERT_EQ(again.readable(), 0u);
        ASSERT_EQ(head2.status, head.status);
        ASSERT_EQ(head2.status_line, head.status_line);
        ASSERT_EQ(head2.delim, head.delim);
        ASSERT_EQ(head2.content_length, head.content_length);
        ASSERT_EQ(head2.keep_alive, head.keep_alive);
        ASSERT_EQ(head2.headers.size(), head.headers.size());
        for (size_t i = 0; i < head.headers.size(); ++i) {
          ASSERT_EQ(head2.headers[i].name, head.headers[i].name);
          ASSERT_EQ(head2.headers[i].value, head.headers[i].value);
        }
        // Streaming: any strict prefix of the head is kNeedMore and
        // consumes nothing (the relay re-feeds the grown buffer).
        for (const size_t cut : {consumed / 2, consumed - 1}) {
          cops::ByteBuffer partial{std::string_view(input).substr(0, cut)};
          cops::http::MessageHead scratch;
          ASSERT_EQ(cops::http::parse_response_head(partial, scratch, limits,
                                                    head_request),
                    Status::kNeedMore)
              << "prefix of " << cut << "/" << consumed << " bytes";
          ASSERT_EQ(partial.readable(), cut);
        }
        break;
      }
      case Status::kMalformed:
        break;  // buffer state unspecified; the proxy 502s and poisons
    }
    // Determinism of the outcome itself.
    cops::ByteBuffer fresh{std::string_view(input)};
    cops::http::MessageHead ignored;
    ASSERT_EQ(
        cops::http::parse_response_head(fresh, ignored, limits, head_request),
        status);
  }
}

// ChunkPassthrough split invariance: validating the same stream one-shot
// and under any segmentation must agree on the outcome, and on the
// forwarded-byte count when the message completes.  consumed may never
// exceed what was offered (over-consuming would forward bytes of the NEXT
// pipelined response).
void check_chunk_passthrough_invariants(const std::string& input,
                                        std::mt19937_64& rng) {
  SCOPED_TRACE("passthrough stream:\n" + escape(input));
  using Status = cops::http::ChunkPassthrough::Status;

  cops::http::ChunkPassthrough oneshot;
  size_t consumed_oneshot = 0;
  const Status status_oneshot = oneshot.feed(input, &consumed_oneshot);
  ASSERT_LE(consumed_oneshot, input.size());

  cops::http::ChunkPassthrough stepped;
  std::string pending;
  size_t offered = 0;
  size_t consumed_stepped = 0;
  Status status_stepped = Status::kNeedMore;
  while (true) {
    const size_t take =
        std::min<size_t>(1 + rng() % 7, input.size() - offered);
    pending.append(input, offered, take);
    offered += take;
    size_t consumed = 0;
    status_stepped = stepped.feed(pending, &consumed);
    ASSERT_LE(consumed, pending.size());
    consumed_stepped += consumed;
    pending.erase(0, consumed);
    if (status_stepped != Status::kNeedMore || offered >= input.size()) break;
  }
  ASSERT_EQ(status_stepped, status_oneshot) << "segmentation changed outcome";
  if (status_oneshot == Status::kDone) {
    ASSERT_EQ(consumed_stepped, consumed_oneshot)
        << "segmentation changed the forwarded-byte count";
    ASSERT_EQ(stepped.decoded_bytes(), oneshot.decoded_bytes());
  }
}

// ---- FTP invariants --------------------------------------------------------

void check_ftp_invariants(const std::string& line) {
  SCOPED_TRACE("line: " + escape(line));
  cops::ftp::FtpCommand parsed;
  const bool ok = cops::ftp::parse_command_into(line, parsed);
  const cops::ftp::FtpCommand* cmd = ok ? &parsed : nullptr;
  if (cmd) {
    ASSERT_GE(cmd->verb.size(), 1u);
    ASSERT_LE(cmd->verb.size(), 4u);
    for (char c : cmd->verb) {
      ASSERT_TRUE(c >= 'A' && c <= 'Z') << "verb byte " << int(c);
    }
    // Arguments come back trimmed.
    ASSERT_EQ(cmd->arg, std::string(cops::trim(cmd->arg)));
    // Round trip: re-formatting the accepted command parses to itself.
    const std::string wire =
        cmd->arg.empty() ? cmd->verb : cmd->verb + " " + cmd->arg;
    cops::ftp::FtpCommand again;
    ASSERT_TRUE(cops::ftp::parse_command_into(wire, again));
    ASSERT_EQ(again.verb, cmd->verb);
    ASSERT_EQ(again.arg, cmd->arg);
  }
  // parse_port_arg on whatever follows the verb (and on the raw line).
  const std::string cmd_arg = cmd ? cmd->arg : std::string();
  for (const std::string_view arg :
       {std::string_view(line), std::string_view(cmd_arg)}) {
    const auto port = cops::ftp::parse_port_arg(arg);
    if (port) {
      ASSERT_NE(port->second, 0);
      ASSERT_EQ(std::count(port->first.begin(), port->first.end(), '.'), 3);
      // Round trip through the PASV formatter (strip its parentheses).
      const auto pasv = cops::ftp::format_pasv(port->first, port->second);
      const auto reparsed =
          cops::ftp::parse_port_arg(std::string_view(pasv).substr(
              1, pasv.size() - 2));
      ASSERT_TRUE(reparsed.has_value());
      ASSERT_EQ(reparsed->first, port->first);
      ASSERT_EQ(reparsed->second, port->second);
    }
  }
}

// ---- corpus replay (every checked-in file, verbatim) -----------------------

// Field values with a control byte (C0, bare CR, DEL) and trailer lines
// outside the field-line grammar (bare LF, a control byte, whitespace
// before the colon): both known-answer tiers below reject them.
constexpr const char* kCtlFieldValues[] = {"a\x01" "b", "a\rb", "a\x7f" "b"};
constexpr const char* kBadTrailerLines[] = {"X-A: a\nb", "X-A: \x01" "1",
                                            "X-A : 1"};

TEST(FuzzCorpusTest, HttpCorpusReplaysClean) {
  const auto corpus = load_corpus("http");
  ASSERT_GE(corpus.size(), 10u) << "HTTP corpus went missing";
  for (const auto& input : corpus) check_http_invariants(input);
}

TEST(FuzzCorpusTest, FtpCorpusReplaysClean) {
  const auto corpus = load_corpus("ftp");
  ASSERT_GE(corpus.size(), 5u) << "FTP corpus went missing";
  for (const auto& entry : corpus) {
    size_t pos = 0;
    while (pos <= entry.size()) {
      size_t eol = entry.find('\n', pos);
      if (eol == std::string::npos) eol = entry.size();
      std::string line = entry.substr(pos, eol - pos);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      check_ftp_invariants(line);
      if (eol == entry.size()) break;
      pos = eol + 1;
    }
  }
}

// The same corpus replays through the proxy's upstream decode layer: every
// entry (request-shaped or response-shaped — the resp_*.http seeds) must
// hold the response-head invariants verbatim.
TEST(FuzzCorpusTest, ResponseCorpusReplaysClean) {
  const auto corpus = load_corpus("http");
  ASSERT_GE(corpus.size(), 25u) << "HTTP corpus went missing";
  for (const auto& input : corpus) check_response_head_invariants(input);
}

// Known answers for the resp_*.http seeds: the decode decisions the proxy's
// 502/poisoning behaviour hangs off (see src/proxy/proxy_session.cpp).
TEST(FuzzCorpusTest, ResponseKnownAnswers) {
  using Status = cops::http::HeadParseStatus;
  using Delim = cops::http::BodyDelim;
  const cops::http::ParseLimits limits;
  const auto parse = [&](const char* wire, bool head_request,
                         cops::http::MessageHead& head) {
    cops::ByteBuffer buf{std::string_view(wire)};
    return cops::http::parse_response_head(buf, head, limits, head_request);
  };
  cops::http::MessageHead head;

  // resp_simple: clean Content-Length framing.
  ASSERT_EQ(parse("HTTP/1.1 200 OK\r\nContent-Length: 5\r\n"
                  "Connection: keep-alive\r\n\r\nhello",
                  false, head),
            Status::kOk);
  EXPECT_EQ(head.status, 200);
  EXPECT_EQ(head.delim, Delim::kContentLength);
  EXPECT_EQ(head.content_length, 5u);
  EXPECT_TRUE(head.keep_alive);

  // The identical bytes answering a HEAD request are bodiless.
  ASSERT_EQ(parse("HTTP/1.1 200 OK\r\nContent-Length: 5\r\n"
                  "Connection: keep-alive\r\n\r\n",
                  true, head),
            Status::kOk);
  EXPECT_EQ(head.delim, Delim::kNone);

  // resp_chunked: chunked framing detected; body passes through verbatim.
  ASSERT_EQ(parse("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n",
                  false, head),
            Status::kOk);
  EXPECT_EQ(head.delim, Delim::kChunked);

  // No framing headers at all: body runs to close (HTTP/1.0 shape).
  ASSERT_EQ(parse("HTTP/1.0 200 OK\r\nServer: x\r\n\r\n", false, head),
            Status::kOk);
  EXPECT_EQ(head.delim, Delim::kToClose);
  EXPECT_FALSE(head.keep_alive);

  // resp_bad_status: not an HTTP status line — never guessed at.
  EXPECT_EQ(parse("BANANA/9.9 tasty\r\nServer: x\r\n\r\n", false, head),
            Status::kMalformed);

  // resp_cl_te: the classic smuggling combination is rejected outright.
  EXPECT_EQ(parse("HTTP/1.1 200 OK\r\nContent-Length: 5\r\n"
                  "Transfer-Encoding: chunked\r\n\r\n",
                  false, head),
            Status::kMalformed);

  // Duplicate and non-numeric Content-Length are equally untrustworthy.
  EXPECT_EQ(parse("HTTP/1.1 200 OK\r\nContent-Length: 4\r\n"
                  "Content-Length: 5\r\n\r\n",
                  false, head),
            Status::kMalformed);
  EXPECT_EQ(parse("HTTP/1.1 200 OK\r\nContent-Length: five\r\n\r\n", false,
                  head),
            Status::kMalformed);

  // Obs-fold continuations from a backend are rejected, not unfolded.
  EXPECT_EQ(parse("HTTP/1.1 200 OK\r\nX-A: 1\r\n folded\r\n\r\n", false,
                  head),
            Status::kMalformed);

  // Control bytes in the reason phrase or a header value would be relayed
  // verbatim (response splitting) — rejected, never forwarded.
  EXPECT_EQ(parse("HTTP/1.1 200 O\x14K\r\nServer: x\r\n\r\n", false, head),
            Status::kMalformed);
  EXPECT_EQ(parse("HTTP/1.1 200 OK\r\nX-A: a\nb\r\n\r\n", false, head),
            Status::kMalformed);

  // resp_chunk_oversize: hex chunk-size overflow fires kTooLarge in the
  // pass-through (the framing can't be trusted → 502 + poison).
  {
    cops::http::ChunkPassthrough passthrough;
    size_t consumed = 0;
    EXPECT_EQ(passthrough.feed("ffffffffffffffff1\r\n", &consumed),
              cops::http::ChunkPassthrough::Status::kTooLarge);
  }
  // resp_truncated_trailer: an unterminated trailer is kNeedMore — the
  // relay keeps waiting and the client never sees a forged terminal chunk.
  {
    cops::http::ChunkPassthrough passthrough;
    size_t consumed = 0;
    EXPECT_EQ(passthrough.feed("3\r\nabc\r\n0\r\nX-Trailer: ok", &consumed),
              cops::http::ChunkPassthrough::Status::kNeedMore);
  }

  // The proxy's side of the shared head grammar (http/head_grammar.hpp);
  // HttpKnownAnswers pins the server's side of the same rules.
  // Responses first: whitespace before the colon, an identical repeated
  // Content-Length, an empty Transfer-Encoding list element.
  EXPECT_EQ(parse("HTTP/1.1 200 OK\r\nContent-Length : 3\r\n\r\n", false,
                  head),
            Status::kMalformed);
  ASSERT_EQ(parse("HTTP/1.1 200 OK\r\nContent-Length: 5\r\n"
                  "Content-Length: 5\r\n\r\n",
                  false, head),
            Status::kOk);
  EXPECT_EQ(head.delim, Delim::kContentLength);
  EXPECT_EQ(head.content_length, 5u);
  ASSERT_EQ(parse("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked,\r\n\r\n",
                  false, head),
            Status::kOk);
  EXPECT_EQ(head.delim, Delim::kChunked);

  // Request heads: the status the proxy answers a rejection with.
  using cops::http::StatusCode;
  const auto request = [&](const std::string& wire,
                           cops::http::MessageHead& out,
                           cops::http::ParseLimits request_limits = {}) {
    cops::ByteBuffer buf{std::string_view(wire)};
    StatusCode status = StatusCode::kOk;
    const auto parsed =
        cops::http::parse_request_head(buf, out, request_limits, &status);
    return std::make_pair(parsed,
                          parsed == Status::kMalformed ? status
                                                       : StatusCode::kOk);
  };
  const auto expect_reject = [&](const std::string& wire, StatusCode status) {
    EXPECT_EQ(request(wire, head), std::make_pair(Status::kMalformed, status))
        << escape(wire);
  };
  const std::string post = "POST / HTTP/1.1\r\nHost: s\r\n";
  expect_reject(post + "Content-Length : 3\r\n\r\n", StatusCode::kBadRequest);
  expect_reject(post + "Transfer-Encoding : chunked\r\n\r\n",
                StatusCode::kBadRequest);
  expect_reject(post + "Content-Length\x0b: 3\r\n\r\n",
                StatusCode::kBadRequest);
  for (const char* value : kCtlFieldValues) {
    expect_reject(std::string("GET / HTTP/1.1\r\nHost: s\r\nX-A: ") + value +
                      "\r\n\r\n",
                  StatusCode::kBadRequest);
  }
  // A second Host is refused here too, not forwarded.
  expect_reject("GET / HTTP/1.1\r\nHost: a\r\nHost: b\r\n\r\n",
                StatusCode::kBadRequest);
  ASSERT_EQ(request(post + "Content-Length: 5\r\nContent-Length: 5\r\n\r\n",
                    head)
                .first,
            Status::kOk);
  EXPECT_EQ(head.delim, Delim::kContentLength);
  EXPECT_EQ(head.content_length, 5u);
  expect_reject(post + "Content-Length: 4\r\nContent-Length: 5\r\n\r\n",
                StatusCode::kBadRequest);
  ASSERT_EQ(request(post + "Transfer-Encoding: chunked,\r\n\r\n", head).first,
            Status::kOk);
  EXPECT_EQ(head.delim, Delim::kChunked);
  expect_reject("GET /a b HTTP/1.1\r\nHost: s\r\n\r\n",
                StatusCode::kBadRequest);
  expect_reject("GET / HTTP/2.0\r\nHost: s\r\n\r\n", StatusCode::kBadRequest);
  // Trailers the relay would forward verbatim must obey the field-line
  // grammar.
  for (const char* trailer : kBadTrailerLines) {
    cops::http::ChunkPassthrough passthrough;
    size_t consumed = 0;
    EXPECT_EQ(passthrough.feed(
                  std::string("3\r\nabc\r\n0\r\n") + trailer + "\r\n\r\n",
                  &consumed),
              cops::http::ChunkPassthrough::Status::kBadTrailer)
        << escape(trailer);
  }
  // One head bound, as for the server.
  cops::http::ParseLimits small;
  small.max_header_bytes = 64;
  const auto head_of = [](size_t size) {
    return "GET / HTTP/1.1\r\nX-Pad: " + std::string(size - 27, 'p') +
           "\r\n\r\n";
  };
  EXPECT_EQ(request(head_of(64), head, small).first, Status::kOk);
  EXPECT_EQ(request(head_of(65), head, small).first, Status::kMalformed);
  EXPECT_EQ(request(head_of(68).substr(0, 63), head, small).first,
            Status::kNeedMore);
  EXPECT_EQ(request(head_of(68).substr(0, 64), head, small).first,
            Status::kMalformed);
}

// Known-answer regressions for the nastiest corpus entries: these encode
// the *decisions* (reject vs. sanitize) rather than just "does not crash".
TEST(FuzzCorpusTest, HttpKnownAnswers) {
  const auto expect = [](const char* wire, cops::http::ParseOutcome want) {
    cops::ByteBuffer buf{std::string_view(wire)};
    cops::http::HttpRequest req;
    EXPECT_EQ(cops::http::parse_request(buf, req), want) << escape(wire);
    return req;
  };
  using Outcome = cops::http::ParseOutcome;
  // Traversal above the root is malformed, plain or percent-encoded.
  expect("GET /../../etc/passwd HTTP/1.1\r\nHost: s\r\n\r\n",
         Outcome::kMalformed);
  expect("GET /a/%2e%2e/%2e%2e/etc/passwd HTTP/1.1\r\nHost: s\r\n\r\n",
         Outcome::kMalformed);
  // Traversal *within* the root sanitizes instead.
  const auto ok = expect("GET /a/../b.txt HTTP/1.1\r\nHost: s\r\n\r\n",
                         Outcome::kComplete);
  EXPECT_EQ(ok.path, "/b.txt");
  // Smuggling vectors: duplicate Host, conflicting Content-Length.
  expect("GET / HTTP/1.1\r\nHost: a\r\nHost: b\r\n\r\n", Outcome::kMalformed);
  expect("POST / HTTP/1.1\r\nHost: s\r\nContent-Length: 4\r\n"
         "Content-Length: 5\r\n\r\nabcd",
         Outcome::kMalformed);
  // Truncated percent escape and embedded NUL.
  expect("GET /x% HTTP/1.1\r\nHost: s\r\n\r\n", Outcome::kMalformed);
  expect("GET /%00 HTTP/1.1\r\nHost: s\r\n\r\n", Outcome::kMalformed);
  // A headerless prefix is incomplete, not malformed.
  expect("GET / HTTP/1.1\r\nHost: s\r\n", Outcome::kIncomplete);
  // Transfer-Encoding: the canonical smuggling vectors all fold to
  // kMalformed through the 3-arg wrapper (the strict overload reports the
  // per-case 400/413/501 — see http_test.cpp).
  expect("POST / HTTP/1.1\r\nHost: s\r\nContent-Length: 5\r\n"
         "Transfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
         Outcome::kMalformed);
  expect("POST / HTTP/1.1\r\nHost: s\r\nTransfer-Encoding: gzip\r\n\r\n",
         Outcome::kMalformed);
  expect("POST / HTTP/1.1\r\nHost: s\r\nTransfer-Encoding: chunked\r\n\r\n"
         "ffffffffffffffff1\r\n",
         Outcome::kMalformed);
  expect("POST / HTTP/1.1\r\nHost: s\r\nTransfer-Encoding: chunked\r\n\r\n"
         "5\r\nhello\r\n0\r\nContent-Length: 5\r\n\r\n",
         Outcome::kMalformed);
  // Obs-fold header continuation: deterministic reject, not a second header.
  expect("GET / HTTP/1.1\r\nHost: s\r\nX-A: 1\r\n folded\r\n\r\n",
         Outcome::kMalformed);
  // A well-formed chunked body decodes (the lifted 501).
  const auto chunked =
      expect("POST / HTTP/1.1\r\nHost: s\r\nTransfer-Encoding: chunked\r\n"
             "\r\n5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n",
             Outcome::kComplete);
  EXPECT_EQ(chunked.body, "hello world");

  // The shared head grammar (http/head_grammar.hpp), one block per rule
  // where the server and the proxy used to decide apart; ResponseKnownAnswers
  // pins the proxy's side of the same rules.  `decide` reports kReject's
  // status, which the 3-arg wrapper folds away.
  using cops::http::StatusCode;
  struct Decision {
    Outcome outcome;
    StatusCode status;  // kOk unless the outcome is kReject
    std::string body;
  };
  const auto decide = [](const std::string& wire,
                         cops::http::ParseLimits limits = {}) {
    cops::ByteBuffer buf{std::string_view(wire)};
    cops::http::HttpRequest req;
    cops::http::ParseEvents events;
    Decision d{cops::http::parse_request(buf, req, limits, events),
               StatusCode::kOk, req.body};
    if (d.outcome == Outcome::kReject) d.status = events.reject_status;
    return d;
  };
  const auto expect_reject = [&](const std::string& wire, StatusCode status) {
    const Decision d = decide(wire);
    EXPECT_EQ(d.outcome, Outcome::kReject) << escape(wire);
    EXPECT_EQ(d.status, status) << escape(wire);
  };
  const std::string post = "POST / HTTP/1.1\r\nHost: s\r\n";

  // Whitespace before the colon (RFC 7230 §3.2.4 MUST reject): these used
  // to set framing.
  expect_reject(post + "Content-Length : 3\r\n\r\nabc",
                StatusCode::kBadRequest);
  expect_reject(post + "Transfer-Encoding : chunked\r\n\r\n3\r\nabc\r\n0"
                       "\r\n\r\n",
                StatusCode::kBadRequest);
  expect_reject(post + "Content-Length\x0b: 3\r\n\r\nabc",
                StatusCode::kBadRequest);
  // A control byte in a field value (bare CR, NUL-class, DEL).
  for (const char* value : kCtlFieldValues) {
    expect_reject(std::string("GET / HTTP/1.1\r\nHost: s\r\nX-A: ") + value +
                      "\r\n\r\n",
                  StatusCode::kBadRequest);
  }
  // A second Host is answered 400, not closed silently.
  expect_reject("GET / HTTP/1.1\r\nHost: a\r\nHost: b\r\n\r\n",
                StatusCode::kBadRequest);
  // An identical repeated Content-Length collapses; differing ones are 400.
  const Decision same = decide(post + "Content-Length: 5\r\nContent-Length: 5"
                                      "\r\n\r\nhello");
  EXPECT_EQ(same.outcome, Outcome::kComplete);
  EXPECT_EQ(same.body, "hello");
  expect_reject(post + "Content-Length: 4\r\nContent-Length: 5\r\n\r\nabcd",
                StatusCode::kBadRequest);
  // Empty list elements are ignored (RFC 7230 §7): "chunked," is chunked.
  const Decision comma = decide(post + "Transfer-Encoding: chunked,\r\n\r\n"
                                       "3\r\nabc\r\n0\r\n\r\n");
  EXPECT_EQ(comma.outcome, Outcome::kComplete);
  EXPECT_EQ(comma.body, "abc");
  // Start-line garbage closes silently: SP inside the target, HTTP/2.0.
  EXPECT_EQ(decide("GET /a b HTTP/1.1\r\nHost: s\r\n\r\n").outcome,
            Outcome::kMalformed);
  EXPECT_EQ(decide("GET / HTTP/2.0\r\nHost: s\r\n\r\n").outcome,
            Outcome::kMalformed);
  // Trailer lines obey the field-line grammar: a bare LF, a control byte,
  // whitespace before the colon.
  const std::string chunked_head =
      post + "Transfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n";
  for (const char* trailer : kBadTrailerLines) {
    expect_reject(chunked_head + trailer + "\r\n\r\n", StatusCode::kBadRequest);
  }
  // One head bound: the head, its CRLFCRLF included, fits in
  // max_header_bytes.  27 bytes of frame around the padding.
  cops::http::ParseLimits small;
  small.max_header_bytes = 64;
  const auto head_of = [](size_t size) {
    return "GET / HTTP/1.1\r\nX-Pad: " + std::string(size - 27, 'p') +
           "\r\n\r\n";
  };
  EXPECT_EQ(decide(head_of(64), small).outcome, Outcome::kComplete);
  EXPECT_EQ(decide(head_of(65), small).outcome, Outcome::kMalformed);
  EXPECT_EQ(decide(head_of(68), small).outcome, Outcome::kMalformed);
  EXPECT_EQ(decide(head_of(68).substr(0, 63), small).outcome,
            Outcome::kIncomplete);
  EXPECT_EQ(decide(head_of(68).substr(0, 64), small).outcome,
            Outcome::kMalformed);
}

// ---- seeded mutation fuzzing ----------------------------------------------

constexpr int kIterationsPerSeed = 1500;

class HttpFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(HttpFuzzTest, MutatedCorpusHoldsInvariants) {
  const uint64_t seed =
      g_has_seed_override ? g_seed_override
                          : static_cast<uint64_t>(GetParam());
  SCOPED_TRACE("replay with --seed=" + std::to_string(seed));
  const auto corpus = load_corpus("http");
  ASSERT_FALSE(corpus.empty());
  std::mt19937_64 rng(seed);
  for (int i = 0; i < kIterationsPerSeed; ++i) {
    check_http_invariants(mutate(rng, corpus));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

class ChunkedFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(ChunkedFuzzTest, MutatedStreamsDecodeSplitInvariantly) {
  const uint64_t seed =
      g_has_seed_override ? g_seed_override
                          : static_cast<uint64_t>(GetParam() + 2000);
  SCOPED_TRACE("replay with --seed=" + std::to_string(seed));
  const auto& seeds = chunked_seed_streams();
  std::mt19937_64 rng(seed);
  // Replay the seeds verbatim first, then mutants.
  // Each stream also follows a chunked request head, so the server and the
  // proxy relay must agree on it (check_http_invariants).
  const std::string head =
      "POST / HTTP/1.1\r\nHost: s\r\nTransfer-Encoding: chunked\r\n\r\n";
  for (const auto& stream : seeds) {
    check_chunked_decoder_invariants(stream, rng);
    if (::testing::Test::HasFatalFailure()) return;
    check_http_invariants(head + stream);
    if (::testing::Test::HasFatalFailure()) return;
  }
  for (int i = 0; i < kIterationsPerSeed; ++i) {
    const std::string stream = mutate(rng, seeds);
    check_chunked_decoder_invariants(stream, rng);
    if (::testing::Test::HasFatalFailure()) return;
    check_http_invariants(head + stream);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

class ResponseFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(ResponseFuzzTest, MutatedCorpusHoldsInvariants) {
  const uint64_t seed =
      g_has_seed_override ? g_seed_override
                          : static_cast<uint64_t>(GetParam() + 3000);
  SCOPED_TRACE("replay with --seed=" + std::to_string(seed));
  const auto corpus = load_corpus("http");
  ASSERT_FALSE(corpus.empty());
  std::mt19937_64 rng(seed);
  for (int i = 0; i < kIterationsPerSeed; ++i) {
    check_response_head_invariants(mutate(rng, corpus));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

class PassthroughFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(PassthroughFuzzTest, MutatedStreamsValidateSplitInvariantly) {
  const uint64_t seed =
      g_has_seed_override ? g_seed_override
                          : static_cast<uint64_t>(GetParam() + 4000);
  SCOPED_TRACE("replay with --seed=" + std::to_string(seed));
  const auto& seeds = chunked_seed_streams();
  std::mt19937_64 rng(seed);
  for (const auto& stream : seeds) {
    check_chunk_passthrough_invariants(stream, rng);
    if (::testing::Test::HasFatalFailure()) return;
  }
  for (int i = 0; i < kIterationsPerSeed; ++i) {
    check_chunk_passthrough_invariants(mutate(rng, seeds), rng);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

class FtpFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(FtpFuzzTest, MutatedCorpusHoldsInvariants) {
  const uint64_t seed =
      g_has_seed_override ? g_seed_override
                          : static_cast<uint64_t>(GetParam() + 1000);
  SCOPED_TRACE("replay with --seed=" + std::to_string(seed));
  const auto corpus = load_corpus("ftp");
  ASSERT_FALSE(corpus.empty());
  std::mt19937_64 rng(seed);
  for (int i = 0; i < kIterationsPerSeed; ++i) {
    check_ftp_invariants(mutate(rng, corpus));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HttpFuzzTest, ::testing::Range(1, 9),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });
INSTANTIATE_TEST_SUITE_P(Seeds, ChunkedFuzzTest, ::testing::Range(1, 9),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });
INSTANTIATE_TEST_SUITE_P(Seeds, FtpFuzzTest, ::testing::Range(1, 9),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });
INSTANTIATE_TEST_SUITE_P(Seeds, ResponseFuzzTest, ::testing::Range(1, 9),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });
INSTANTIATE_TEST_SUITE_P(Seeds, PassthroughFuzzTest, ::testing::Range(1, 9),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace

// Custom main: googletest leaves unrecognized flags in argv, so --seed=<N>
// passes straight through InitGoogleTest to us.
int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0) {
      g_seed_override = std::strtoull(arg.data() + 7, nullptr, 10);
      g_has_seed_override = true;
    }
  }
  return RUN_ALL_TESTS();
}
