"""Drive a :class:`~repro.core.ScapKernelModule` one packet at a time.

Tests that feed hand-crafted packets straight into the kernel module
(no NIC batch, no queueing model) use the module's only entry point,
the batch protocol, with a batch of one.
"""


def feed_kernel(kernel, packet, core=0):
    """Process ``packet`` on ``core`` as a one-packet batch; return its cycles."""
    ctx = kernel.begin_batch()
    cycles = kernel.handle_batch_packet(packet, core, ctx)
    kernel.end_batch(ctx)
    return cycles
