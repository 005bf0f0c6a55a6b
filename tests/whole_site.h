#pragma once

/// \file whole_site.h
/// The single-query set-up shared by the executor tests: one QuerySession
/// leasing all of a Site, opened the way exec::RunJoinExperiment opens it.
/// Enable audit on the site before opening the session: the session binds
/// its budget and allocator to the site's auditor only at Open.

#include <memory>

#include "exec/query_session.h"
#include "exec/site.h"

namespace tertio::test {

/// Opens the whole-site session on a fresh `site` (aborts the test binary if
/// the lease fails, which it cannot on a fresh site).
inline std::unique_ptr<exec::QuerySession> WholeSiteSession(exec::Site& site) {
  return exec::QuerySession::Open(&site, exec::SessionResources::WholeSite(site)).value();
}

}  // namespace tertio::test
