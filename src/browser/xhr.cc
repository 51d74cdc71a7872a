#include "browser/xhr.h"

#include <utility>

namespace bnm::browser {

bool XmlHttpRequest::open(const std::string& method, const std::string& url) {
  const auto parsed = parse_url(url, browser_.origin());
  if (!parsed) return false;
  method_ = method;
  url_ = *parsed;
  change_state(ReadyState::kOpened);
  return true;
}

void XmlHttpRequest::change_state(ReadyState s) {
  state_ = s;
  if (onreadystatechange_) onreadystatechange_();
}

bool XmlHttpRequest::send(const std::string& body) {
  if (state_ != ReadyState::kOpened && state_ != ReadyState::kDone) {
    if (onerror_) onerror_("InvalidStateError");
    return false;
  }
  if (!browser_.same_origin(url_.endpoint)) {
    if (onerror_) onerror_("same-origin policy violation");
    return false;
  }

  const ProbeKind kind =
      method_ == "POST" ? ProbeKind::kXhrPost : ProbeKind::kXhrGet;
  const bool first = !used_before_;
  used_before_ = true;

  http::HttpRequest req;
  req.method = method_;
  req.target = url_.path;
  req.headers.set("Host", url_.endpoint.to_string());
  req.body = body;

  const sim::Duration pre = browser_.sample_pre_send(kind, first);
  browser_.sim().scheduler().post_after(pre, [this, alive = alive_, kind,
                                              first, req = std::move(req)] {
    if (!*alive) return;
    browser_.http().request(
        url_.endpoint, req,
        [this, alive, kind, first](http::HttpResponse resp,
                                   http::HttpClient::TransferInfo) {
          if (!*alive) return;
          const sim::Duration dispatch =
              browser_.sample_recv_dispatch(kind, first);
          browser_.event_loop().post(
              dispatch, [this, alive, resp = std::move(resp)] {
                if (!*alive) return;
                status_ = resp.status;
                response_text_ = resp.body;
                change_state(ReadyState::kDone);
                // Browsers signal a network error as readyState 4 with
                // status 0, then fire onerror.
                if (status_ == 0 && onerror_) onerror_("network error");
              });
        });
  });
  return true;
}

}  // namespace bnm::browser
