#include "kern/aio.hpp"

#include "sim/logging.hpp"

namespace bpd::kern {

void
Aio::pread(Process &p, int fd, std::span<std::uint8_t> buf,
           std::uint64_t off, IoCb cb)
{
    // QD1 libaio = sync path + extra io_getevents round trip.
    k_.sysPread(p, fd, buf, off,
                harvested(openRequest(k_.tracer(), p.pasid(),
                                      "libaio.pread", "libaio.p", p.pid(),
                                      std::move(cb))));
}

void
Aio::pwrite(Process &p, int fd, std::span<const std::uint8_t> buf,
            std::uint64_t off, IoCb cb)
{
    k_.sysPwrite(p, fd, buf, off,
                 harvested(openRequest(k_.tracer(), p.pasid(),
                                       "libaio.pwrite", "libaio.p", p.pid(),
                                       std::move(cb))));
}

Request
Aio::harvested(Request req)
{
    const Time extra = k_.cpu().scaled(k_.costs().aioExtraNs);
    req.intercept([this, extra](long long n, IoTrace tr, Request up) {
        k_.eq().after(extra, [n, tr, extra, up = std::move(up)]() mutable {
            tr.kernelNs += extra;
            up.finish(n, tr);
        });
    });
    return req;
}

void
Aio::submitBatch(Process &p, std::vector<Op> ops, BatchCb cb)
{
    // Submissions pipeline through one io_submit call: fixed per-request
    // spacing instead of a full syscall each.
    const Time spacing = k_.cpu().scaled(800);
    auto shared = std::make_shared<BatchCb>(std::move(cb));
    for (std::size_t i = 0; i < ops.size(); i++) {
        const Op op = ops[i];
        k_.eq().after(i * spacing, [this, &p, op, i, shared]() {
            Request req = openRequest(
                k_.tracer(), p.pasid(),
                op.write ? "libaio.pwrite" : "libaio.pread", "libaio.p",
                p.pid(), [shared, i](long long n, IoTrace tr) {
                    (*shared)(i, n, tr);
                });
            if (op.write) {
                k_.sysPwrite(p, op.fd,
                             std::span<const std::uint8_t>(op.buf.data(),
                                                           op.buf.size()),
                             op.off, std::move(req));
            } else {
                k_.sysPread(p, op.fd, op.buf, op.off, std::move(req));
            }
        });
    }
}

} // namespace bpd::kern
