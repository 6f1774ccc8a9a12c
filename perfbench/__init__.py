"""focuslab benchmark: workloads, tracing and host-speed scaling (see README.md)."""
