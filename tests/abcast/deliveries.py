"""A test's own record of what an atomic broadcast delivered."""


def spy(abcast):
    """Record each participant's deliveries as ``(sender, id)``, from
    the runs the layer hands the callbacks attached to it (install it
    before they attach).  A crash empties the participant's record, as
    it restarts its log.  Returns the records by pid, also kept as
    ``abcast.spied``."""
    logs = abcast.spied = {}
    attach_run, on_crash = abcast.attach_run, abcast.on_crash

    def attach(pid, deliver_run):
        log = logs[pid] = []

        def recorded(run, start):
            log.extend((entry["sender"], entry["id"]) for entry in run)
            deliver_run(run, start)

        attach_run(pid, recorded)

    def crashed(pid):
        on_crash(pid)
        logs[pid].clear()

    abcast.attach_run, abcast.on_crash = attach, crashed
    return logs
