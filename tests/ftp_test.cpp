// Tests for the FTP substrate and the end-to-end COPS-FTP server.
#include <gtest/gtest.h>

#include <thread>

#include "ftp/command.hpp"
#include "ftp/ftp_server.hpp"
#include "ftp/fs_view.hpp"
#include "ftp/user_db.hpp"
#include "tests/test_util.hpp"

namespace cops::ftp {
namespace {

// ---------- command parsing ----------------------------------------------------

TEST(FtpCommand, ParsesVerbAndArg) {
  FtpCommand cmd;
  ASSERT_TRUE(parse_command_into("RETR file.txt", cmd));
  EXPECT_EQ(cmd.verb, "RETR");
  EXPECT_EQ(cmd.arg, "file.txt");
}

TEST(FtpCommand, VerbUppercased) {
  FtpCommand cmd;
  ASSERT_TRUE(parse_command_into("user alice", cmd));
  EXPECT_EQ(cmd.verb, "USER");
  EXPECT_EQ(cmd.arg, "alice");
}

TEST(FtpCommand, NoArg) {
  FtpCommand cmd;
  ASSERT_TRUE(parse_command_into("PASV", cmd));
  EXPECT_EQ(cmd.verb, "PASV");
  EXPECT_TRUE(cmd.arg.empty());
}

TEST(FtpCommand, RejectsGarbage) {
  FtpCommand cmd;
  EXPECT_FALSE(parse_command_into("", cmd));
  EXPECT_FALSE(parse_command_into("TOOLONGVERB arg", cmd));
  EXPECT_FALSE(parse_command_into("123 x", cmd));
}

TEST(FtpCommand, PortArgRoundTrip) {
  auto target = parse_port_arg("127,0,0,1,31,144");
  ASSERT_TRUE(target.has_value());
  EXPECT_EQ(target->first, "127.0.0.1");
  EXPECT_EQ(target->second, 31 * 256 + 144);
  EXPECT_EQ(format_pasv("127.0.0.1", 8080), "(127,0,0,1,31,144)");
}

TEST(FtpCommand, PortArgRejectsBadInput) {
  EXPECT_FALSE(parse_port_arg("1,2,3,4,5").has_value());
  EXPECT_FALSE(parse_port_arg("256,0,0,1,1,1").has_value());
  EXPECT_FALSE(parse_port_arg("a,b,c,d,e,f").has_value());
  EXPECT_FALSE(parse_port_arg("127,0,0,1,0,0").has_value());
}

// ---------- FsView --------------------------------------------------------------

TEST(FsView, ResolveAbsoluteAndRelative) {
  EXPECT_EQ(FsView::resolve("/", "file.txt"), "/file.txt");
  EXPECT_EQ(FsView::resolve("/a", "b.txt"), "/a/b.txt");
  EXPECT_EQ(FsView::resolve("/a", "/c.txt"), "/c.txt");
}

TEST(FsView, ResolveDotSegments) {
  EXPECT_EQ(FsView::resolve("/a/b", ".."), "/a");
  EXPECT_EQ(FsView::resolve("/a", "./x/../y"), "/a/y");
}

TEST(FsView, ResolveRefusesEscape) {
  EXPECT_EQ(FsView::resolve("/", ".."), "");
  EXPECT_EQ(FsView::resolve("/a", "../../x"), "");
}

TEST(FsView, ListAndSize) {
  test::TempDir dir;
  dir.write_file("f1.txt", "12345");
  dir.write_file("sub/f2.txt", "z");
  FsView fs(dir.str());
  auto entries = fs.list("/");
  ASSERT_TRUE(entries.is_ok());
  EXPECT_EQ(entries.value().size(), 2u);
  auto size = fs.file_size("/f1.txt");
  ASSERT_TRUE(size.is_ok());
  EXPECT_EQ(size.value(), 5u);
  EXPECT_TRUE(fs.is_directory("/sub"));
  EXPECT_FALSE(fs.is_directory("/f1.txt"));
}

TEST(FsView, MutationsWork) {
  test::TempDir dir;
  FsView fs(dir.str());
  ASSERT_TRUE(fs.make_directory("/d").is_ok());
  EXPECT_TRUE(fs.is_directory("/d"));
  ASSERT_TRUE(fs.write_file("/d/f", "abc").is_ok());
  EXPECT_TRUE(fs.exists("/d/f"));
  ASSERT_TRUE(fs.remove_file("/d/f").is_ok());
  ASSERT_TRUE(fs.remove_directory("/d").is_ok());
  EXPECT_FALSE(fs.exists("/d"));
}

TEST(FsView, RemoveMissingFails) {
  test::TempDir dir;
  FsView fs(dir.str());
  EXPECT_FALSE(fs.remove_file("/ghost").is_ok());
  EXPECT_FALSE(fs.remove_directory("/ghost").is_ok());
}

TEST(FsView, ListLineFormat) {
  DirEntry entry{"file.txt", false, 1234, 0};
  const auto line = FsView::format_list_line(entry);
  EXPECT_NE(line.find("-rw-r--r--"), std::string::npos);
  EXPECT_NE(line.find("1234"), std::string::npos);
  EXPECT_NE(line.find("file.txt"), std::string::npos);
  DirEntry dir_entry{"sub", true, 0, 0};
  EXPECT_NE(FsView::format_list_line(dir_entry).find("drwx"),
            std::string::npos);
}

// ---------- UserDb ---------------------------------------------------------------

TEST(UserDb, AuthenticateKnownUser) {
  UserDb db;
  db.add_user("alice", "secret");
  EXPECT_TRUE(db.authenticate("alice", "secret"));
  EXPECT_FALSE(db.authenticate("alice", "wrong"));
  EXPECT_FALSE(db.authenticate("bob", "secret"));
}

TEST(UserDb, AnonymousGatedByFlag) {
  UserDb db;
  EXPECT_FALSE(db.authenticate("anonymous", "x"));
  db.allow_anonymous(true);
  EXPECT_TRUE(db.authenticate("anonymous", "anything"));
}

TEST(UserDb, WritePermission) {
  UserDb db;
  db.add_user("ro", "p", false);
  db.add_user("rw", "p", true);
  EXPECT_FALSE(db.can_write("ro"));
  EXPECT_TRUE(db.can_write("rw"));
  EXPECT_FALSE(db.can_write("anonymous"));
}

TEST(UserDb, LoginActivityRecorded) {
  UserDb db;
  db.record_login("alice");
  db.record_login("alice");
  EXPECT_EQ(db.login_count("alice"), 2u);
  EXPECT_EQ(db.login_count("bob"), 0u);
}

// ---------- end-to-end COPS-FTP ----------------------------------------------------

class FtpServerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::make_unique<test::TempDir>();
    root_->write_file("hello.txt", "hello from ftp");
    root_->write_file("docs/readme.md", "# readme");
    auto users = std::make_shared<UserDb>();
    users->add_user("alice", "secret", /*write_allowed=*/true);
    FtpServerConfig config;
    config.root = root_->str();
    server_ = std::make_unique<CopsFtpServer>(
        CopsFtpServer::default_options(), config, users);
    auto status = server_->start();
    ASSERT_TRUE(status.is_ok()) << status.to_string();
  }
  void TearDown() override { server_->stop(); }

  // Connects and waits for the 220 banner.
  std::unique_ptr<test::BlockingClient> connect_control() {
    auto client = std::make_unique<test::BlockingClient>();
    if (!client->connect("127.0.0.1", server_->port())) return nullptr;
    client->read_until("220 ");
    return client;
  }

  static std::string command(test::BlockingClient& client,
                             const std::string& line,
                             const std::string& expect_code) {
    client.send_all(line + "\r\n");
    return client.read_until(expect_code + " ");
  }

  // Parses a 227 PASV reply into a data port.
  static uint16_t pasv_port(const std::string& reply) {
    const size_t open = reply.find('(');
    const size_t close = reply.find(')', open);
    if (open == std::string::npos || close == std::string::npos) return 0;
    auto inside = reply.substr(open + 1, close - open - 1);
    int h1 = 0;
    int h2 = 0;
    int h3 = 0;
    int h4 = 0;
    int p1 = 0;
    int p2 = 0;
    if (std::sscanf(inside.c_str(), "%d,%d,%d,%d,%d,%d", &h1, &h2, &h3, &h4,
                    &p1, &p2) != 6) {
      return 0;
    }
    return static_cast<uint16_t>(p1 * 256 + p2);
  }

  void login(test::BlockingClient& client, const std::string& user = "alice",
             const std::string& pass = "secret") {
    EXPECT_NE(command(client, "USER " + user, "331").find("331"),
              std::string::npos);
    EXPECT_NE(command(client, "PASS " + pass, "230").find("230"),
              std::string::npos);
  }

  std::unique_ptr<test::TempDir> root_;
  std::unique_ptr<CopsFtpServer> server_;
};

TEST_F(FtpServerFixture, BannerAndLogin) {
  auto client = connect_control();
  ASSERT_NE(client, nullptr);
  login(*client);
}

TEST_F(FtpServerFixture, AnonymousLoginAccepted) {
  auto client = connect_control();
  ASSERT_NE(client, nullptr);
  command(*client, "USER anonymous", "331");
  EXPECT_NE(command(*client, "PASS guest@", "230").find("230"),
            std::string::npos);
}

TEST_F(FtpServerFixture, WrongPasswordRejected) {
  auto client = connect_control();
  ASSERT_NE(client, nullptr);
  command(*client, "USER alice", "331");
  EXPECT_NE(command(*client, "PASS nope", "530").find("530"),
            std::string::npos);
}

TEST_F(FtpServerFixture, CommandsRequireLogin) {
  auto client = connect_control();
  ASSERT_NE(client, nullptr);
  EXPECT_NE(command(*client, "PWD", "530").find("530"), std::string::npos);
  EXPECT_NE(command(*client, "RETR hello.txt", "530").find("530"),
            std::string::npos);
}

TEST_F(FtpServerFixture, PwdCwdCdup) {
  auto client = connect_control();
  ASSERT_NE(client, nullptr);
  login(*client);
  EXPECT_NE(command(*client, "PWD", "257").find("\"/\""), std::string::npos);
  EXPECT_NE(command(*client, "CWD docs", "250").find("250"),
            std::string::npos);
  EXPECT_NE(command(*client, "PWD", "257").find("\"/docs\""),
            std::string::npos);
  EXPECT_NE(command(*client, "CDUP", "250").find("250"), std::string::npos);
  EXPECT_NE(command(*client, "PWD", "257").find("\"/\""), std::string::npos);
}

TEST_F(FtpServerFixture, CwdToMissingDirFails) {
  auto client = connect_control();
  ASSERT_NE(client, nullptr);
  login(*client);
  EXPECT_NE(command(*client, "CWD nosuchdir", "550").find("550"),
            std::string::npos);
}

TEST_F(FtpServerFixture, SizeCommand) {
  auto client = connect_control();
  ASSERT_NE(client, nullptr);
  login(*client);
  EXPECT_NE(command(*client, "SIZE hello.txt", "213").find("213 14"),
            std::string::npos);
  EXPECT_NE(command(*client, "SIZE ghost", "550").find("550"),
            std::string::npos);
}

TEST_F(FtpServerFixture, PassiveRetrDeliversFile) {
  auto client = connect_control();
  ASSERT_NE(client, nullptr);
  login(*client);
  const auto pasv_reply = command(*client, "PASV", "227");
  const uint16_t port = pasv_port(pasv_reply);
  ASSERT_GT(port, 0) << pasv_reply;

  client->send_all("RETR hello.txt\r\n");
  test::BlockingClient data;
  ASSERT_TRUE(data.connect("127.0.0.1", port));
  const auto contents = data.read_some();
  EXPECT_EQ(contents, "hello from ftp");
  const auto replies = client->read_until("226 ");
  EXPECT_NE(replies.find("150 "), std::string::npos);
  EXPECT_NE(replies.find("226 "), std::string::npos);
  EXPECT_EQ(server_->hooks().transfers_completed(), 1u);
}

// A file of nserver::kSendfileMinBytes or more reaches RETR as an open
// descriptor with no bytes in memory; the data connection must send it
// with sendfile, every byte intact.
TEST_F(FtpServerFixture, PassiveRetrSendsDescriptorBackedFile) {
  std::string big(300 * 1024, '\0');
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>((i * 131 + i / 977) & 0xff);
  }
  root_->write_file("big.bin", big);
  ASSERT_GE(big.size(), nserver::kSendfileMinBytes);
  auto client = connect_control();
  ASSERT_NE(client, nullptr);
  login(*client);
  const uint16_t port = pasv_port(command(*client, "PASV", "227"));
  ASSERT_GT(port, 0);

  client->send_all("RETR big.bin\r\n");
  test::BlockingClient data;
  ASSERT_TRUE(data.connect("127.0.0.1", port));
  const auto contents = data.read_some(0, /*timeout_ms=*/5000);
  ASSERT_EQ(contents.size(), big.size());
  EXPECT_TRUE(contents == big) << "RETR body differs from the file";
  EXPECT_NE(client->read_until("226 ").find("226 "), std::string::npos);
  EXPECT_EQ(server_->hooks().transfers_completed(), 1u);
}

TEST_F(FtpServerFixture, PassiveListShowsEntries) {
  auto client = connect_control();
  ASSERT_NE(client, nullptr);
  login(*client);
  const uint16_t port = pasv_port(command(*client, "PASV", "227"));
  ASSERT_GT(port, 0);
  client->send_all("LIST\r\n");
  test::BlockingClient data;
  ASSERT_TRUE(data.connect("127.0.0.1", port));
  const auto listing = data.read_some();
  EXPECT_NE(listing.find("hello.txt"), std::string::npos);
  EXPECT_NE(listing.find("docs"), std::string::npos);
  client->read_until("226 ");
}

TEST_F(FtpServerFixture, StorUploadsFile) {
  auto client = connect_control();
  ASSERT_NE(client, nullptr);
  login(*client);
  const uint16_t port = pasv_port(command(*client, "PASV", "227"));
  ASSERT_GT(port, 0);
  client->send_all("STOR upload.txt\r\n");
  test::BlockingClient data;
  ASSERT_TRUE(data.connect("127.0.0.1", port));
  data.send_all("uploaded-bytes");
  data.shutdown_write();
  data.close();
  const auto replies = client->read_until("226 ");
  EXPECT_NE(replies.find("226 "), std::string::npos);
  FsView fs(root_->str());
  EXPECT_TRUE(fs.exists("/upload.txt"));
  auto size = fs.file_size("/upload.txt");
  ASSERT_TRUE(size.is_ok());
  EXPECT_EQ(size.value(), 14u);
}

TEST_F(FtpServerFixture, StorRequiresWritePermission) {
  auto client = connect_control();
  ASSERT_NE(client, nullptr);
  command(*client, "USER anonymous", "331");
  command(*client, "PASS x", "230");
  EXPECT_NE(command(*client, "STOR f.txt", "550").find("550"),
            std::string::npos);
}

TEST_F(FtpServerFixture, MkdRmdDele) {
  auto client = connect_control();
  ASSERT_NE(client, nullptr);
  login(*client);
  EXPECT_NE(command(*client, "MKD newdir", "257").find("257"),
            std::string::npos);
  FsView fs(root_->str());
  EXPECT_TRUE(fs.is_directory("/newdir"));
  EXPECT_NE(command(*client, "RMD newdir", "250").find("250"),
            std::string::npos);
  EXPECT_FALSE(fs.exists("/newdir"));
  EXPECT_NE(command(*client, "DELE hello.txt", "250").find("250"),
            std::string::npos);
  EXPECT_FALSE(fs.exists("/hello.txt"));
}

TEST_F(FtpServerFixture, RetrMissingFileIs550) {
  auto client = connect_control();
  ASSERT_NE(client, nullptr);
  login(*client);
  EXPECT_NE(command(*client, "RETR ghost.bin", "550").find("550"),
            std::string::npos);
}

TEST_F(FtpServerFixture, RetrWithoutDataSetupFails) {
  auto client = connect_control();
  ASSERT_NE(client, nullptr);
  login(*client);
  // No PASV/PORT: the server cannot open a data connection.
  client->send_all("RETR hello.txt\r\n");
  const auto replies = client->read_until("425 ", 6000);
  EXPECT_NE(replies.find("425"), std::string::npos);
}

TEST_F(FtpServerFixture, QuitClosesConnection) {
  auto client = connect_control();
  ASSERT_NE(client, nullptr);
  const auto reply = command(*client, "QUIT", "221");
  EXPECT_NE(reply.find("221"), std::string::npos);
  // Connection should be closed by the server shortly after.
  const auto extra = client->read_some(0, 500);
  EXPECT_TRUE(extra.empty());
}

TEST_F(FtpServerFixture, UnknownCommandIs500Or502) {
  auto client = connect_control();
  ASSERT_NE(client, nullptr);
  login(*client);
  client->send_all("XYZZ\r\n");
  const auto reply = client->read_until("50");
  EXPECT_TRUE(reply.find("502") != std::string::npos ||
              reply.find("500") != std::string::npos)
      << reply;
}

TEST_F(FtpServerFixture, TraversalRefused) {
  auto client = connect_control();
  ASSERT_NE(client, nullptr);
  login(*client);
  EXPECT_NE(command(*client, "CWD ..", "550").find("550"), std::string::npos);
  EXPECT_NE(command(*client, "RETR ../../etc/passwd", "550").find("550"),
            std::string::npos);
}

TEST_F(FtpServerFixture, ActivePortRetr) {
  auto client = connect_control();
  ASSERT_NE(client, nullptr);
  login(*client);
  // Listen locally and tell the server to connect to us (PORT / active).
  auto listener =
      net::TcpListener::listen(net::InetAddress::loopback(0), 4);
  ASSERT_TRUE(listener.is_ok());
  const uint16_t port = listener.value().local_address().value().port();
  char arg[64];
  std::snprintf(arg, sizeof(arg), "127,0,0,1,%d,%d", port / 256, port % 256);
  EXPECT_NE(command(*client, std::string("PORT ") + arg, "200").find("200"),
            std::string::npos);
  client->send_all("RETR hello.txt\r\n");
  // Accept the server's data connection (blocking-ish poll loop).
  Result<net::TcpSocket> data = Status::would_block();
  for (int i = 0; i < 3000 && !data.is_ok(); ++i) {
    data = listener.value().accept();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(data.is_ok());
  ByteBuffer buf;
  for (int i = 0; i < 2000; ++i) {
    auto n = data.value().read(buf);
    if (!n.is_ok() && n.status().code() == StatusCode::kClosed) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(buf.view(), "hello from ftp");
  client->read_until("226 ");
}

TEST_F(FtpServerFixture, DynamicPoolGrowsUnderConcurrentTransfers) {
  // COPS-FTP uses synchronous completions: concurrent RETRs block workers
  // and the ProcessorController (O5 Dynamic) grows the pool.
  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&] {
      auto client = connect_control();
      if (!client) return;
      command(*client, "USER alice", "331");
      command(*client, "PASS secret", "230");
      const uint16_t port = pasv_port(command(*client, "PASV", "227"));
      if (port == 0) return;
      client->send_all("RETR hello.txt\r\n");
      test::BlockingClient data;
      if (!data.connect("127.0.0.1", port)) return;
      if (data.read_some() == "hello from ftp") ok.fetch_add(1);
      client->read_until("226 ");
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), kClients);
}

}  // namespace
}  // namespace cops::ftp
