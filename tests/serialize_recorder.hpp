// SerializeRecorder — a decorator over the COPS-HTTP hooks that records,
// for every reply the server encodes, the flat HttpResponse::serialize()
// bytes.  Their concatenation is the reference stream the segmented reply
// path (writev gathers, sendfile ranges) must put on the wire byte for byte.
//
// serialize() sees only in-memory bytes, so a descriptor-backed file is read
// back into memory before the reference is taken.  Under simnet the Date
// header comes from the frozen virtual clock, so the reference and the real
// reply carry the same one.
#pragma once

#include <any>
#include <memory>
#include <string>

#include "http/http_server.hpp"

namespace cops::test {

class SerializeRecorder final : public nserver::AppHooks {
 public:
  explicit SerializeRecorder(http::HttpServerConfig config)
      : inner_(std::make_shared<http::HttpAppHooks>(std::move(config))) {}

  nserver::DecodeResult decode(nserver::RequestContext& ctx,
                               ByteBuffer& in) override {
    return inner_->decode(ctx, in);
  }
  void handle(nserver::RequestContext& ctx, std::any request) override {
    inner_->handle(ctx, std::move(request));
  }
  EncodedReply encode_reply(nserver::RequestContext& ctx,
                            std::any response) override {
    http::HttpResponse flat =
        std::any_cast<const http::HttpResponse&>(response);
    if (flat.file && flat.file->fd >= 0) {
      flat.file = nserver::FileIoService::read_file(flat.file->path).value();
    }
    expected_ += flat.serialize();
    return inner_->encode_reply(ctx, std::move(response));
  }

  // Every reply so far, serialized; read after the server has stopped.
  [[nodiscard]] const std::string& expected() const { return expected_; }

 private:
  std::shared_ptr<http::HttpAppHooks> inner_;
  std::string expected_;
};

}  // namespace cops::test
