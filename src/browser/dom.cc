#include "browser/dom.h"

#include <utility>

namespace bnm::browser {

bool DomElementLoader::load(const std::string& url) {
  const auto parsed = parse_url(url, browser_.origin());
  if (!parsed) {
    if (onerror_) onerror_("malformed URL");
    return false;
  }
  const bool first = !used_before_;
  used_before_ = true;

  http::HttpRequest req;
  req.method = "GET";
  req.target = parsed->path;
  req.headers.set("Host", parsed->endpoint.to_string());

  const sim::Duration pre = browser_.sample_pre_send(ProbeKind::kDom, first);
  browser_.sim().scheduler().post_after(
      pre, [this, alive = alive_, first, target = parsed->endpoint,
            req = std::move(req)] {
        if (!*alive) return;
        browser_.http().request(
            target, req,
            [this, alive, first](http::HttpResponse resp,
                                 http::HttpClient::TransferInfo) {
              if (!*alive) return;
              const sim::Duration dispatch =
                  browser_.sample_recv_dispatch(ProbeKind::kDom, first);
              browser_.event_loop().post(
                  dispatch, [this, alive, status = resp.status] {
                    if (!*alive) return;
                    ++loads_completed_;
                    if (status >= 200 && status < 400) {
                      if (onload_) onload_();
                    } else if (onerror_) {
                      onerror_("load failed: " + std::to_string(status));
                    }
                  });
            });
      });
  return true;
}

}  // namespace bnm::browser
