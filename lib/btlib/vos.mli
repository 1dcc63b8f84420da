(** The virtual native OS.

    Owns the guest process's address space and provides the services both
    execution vehicles (reference interpreter and IA-32 EL) request:
    memory, system calls, exception delivery to guest handlers, and the
    kernel/idle accounting buckets the Sysmark analysis needs. *)

(** Outcome of delivering an exception to the guest. *)
type exception_outcome =
  | Resumed  (** a guest handler was entered; resume at [st.eip] *)
  | Unhandled of Ia32.Fault.t

(** Scheduling status of a guest thread. *)
type thread_status =
  | Runnable
  | Blocked_join of int  (** waiting for this tid to exit *)
  | Blocked_futex of int  (** waiting on this guest address *)
  | Exited_t of int  (** exited with this code, not yet reaped *)
  | Reaped

(** A guest thread: a full per-thread architectural state over the shared
    address space, plus scheduling bookkeeping. *)
type thread = {
  tid : int;
  mutable state : Ia32.State.t;
  mutable status : thread_status;
  mutable joiner : int option;  (** tid blocked in [Join] on this thread *)
  mutable wake_result : int option;  (** EAX value owed at next resume *)
  mutable t_cycles : int;  (** virtual cycles charged to this thread *)
  mutable t_syscalls : int;
}

type t = {
  mem : Ia32.Memory.t;
  mutable brk : int;
  heap_base : int;
  heap_limit : int;
  handlers : (int, int) Hashtbl.t;  (** exception vector -> handler *)
  output : Buffer.t;
  mutable exit_code : int option;
  mutable kernel_cycles : int;  (** native kernel/driver time *)
  mutable idle_cycles : int;
  mutable syscalls : int;
  mutable exceptions_delivered : int;
  mutable clock : int -> int;
      (** virtual cycle source, installed by the harness *)
  mutable transient_fault : (Syscall.call -> bool) option;
      (** transient-failure injection hook, consulted once per attempt;
          [true] fails that attempt and the OS retries after a backoff
          (bounded; guest-transparent — only kernel time moves) *)
  mutable transient_retries : int;
      (** attempts that failed transiently and were retried *)
  mutable trace : Obs.Trace.t option;
      (** when set, syscall entry/exit events are emitted here; recording
          only — service behavior and accounting are unaffected *)
  mutable futex_hist : (int -> unit) option;
      (** when set, called with the blocked duration (virtual cycles) of
          every completed futex wait, at wake time. Recording only;
          deliberately outside {!checkpoint}/{!restore} — attaching never
          perturbs snapshots or observables *)
  futex_wait_since : (int, int) Hashtbl.t;
      (** tid -> clock at block, maintained only while [futex_hist] is
          attached *)
  mutable req_data : string;
      (** request/response channel: the payload bound by the serving
          harness (see {!bind_request}) *)
  mutable req_pos : int;  (** request bytes already delivered by [Recv] *)
  mutable req_bound : bool;  (** a request is bound ([Accept] succeeds) *)
  response : Buffer.t;  (** bytes the guest appended with [Send] *)
  mutable net_recvd : int;  (** total request bytes delivered *)
  mutable net_sent : int;  (** total response bytes appended *)
  mutable region_next : int;
      (** translated-code-region arena cursor for BTLib [alloc_region];
          per-instance (0 = personality initialises it lazily from its own
          base), so many live Vos in one process never share arena state *)
  threads : (int, thread) Hashtbl.t;
  mutable next_tid : int;  (** tids are dense: 0 .. next_tid-1 *)
  mutable current : int;
  mutable quantum : int;
      (** virtual cycles per scheduling slice; [<= 0] disables preemption *)
  mutable quantum_start : int;
  mutable preempt : bool;  (** set by [Yield]: reschedule at next commit *)
  mutable futex_fifo : int list;  (** tids in futex wait, oldest first *)
  mutable last_charge : int;
  mutable context_switches : int;
}

val heap_base_default : int

val create : Ia32.Memory.t -> t

val output : t -> string
(** Console output written by the guest so far. *)

(** {1 Request/response channel}

    A minimal socket-like service family for server-style guests: the
    harness binds one request payload before (or between) runs; the guest
    drains it with [Accept]/[Recv] and appends its reply with [Send].
    Entirely per-instance — concurrent Vos instances in one process never
    share channel state. *)

val bind_request : t -> string -> unit
(** Bind [payload] as the pending request and clear any previous
    response/transfer counters. [Accept] then returns the number of
    not-yet-received bytes; [Recv] delivers them in order. *)

val response : t -> string
(** Bytes the guest has appended with [Send] since the last
    {!bind_request}. *)

val perform : t -> Ia32.State.t -> Syscall.call -> Syscall.result
(** Execute a system service against guest state. The service "runs
    natively"; the caller charges its cycle cost to the kernel bucket.

    [Write] is all-or-nothing (POSIX-ish): a page fault mid-buffer
    returns [-EFAULT] with nothing transferred. A negative [Sbrk] unmaps
    the fully freed heap pages. Injected transient failures (see
    {!t.transient_fault}) are retried with exponential backoff, at most
    {!max_transient_retries} times, then the service proceeds — the
    guest never observes them. *)

val max_transient_retries : int
val transient_backoff_cycles : int

(** {1 Guest threads}

    Both execution vehicles share this thread table and deterministic
    scheduler: round-robin by tid, rescheduling only at system-call
    commit points when the virtual-clock quantum has expired (or the
    thread yielded), FIFO futex queues. With at most one registered
    thread every scheduling hook is a no-op, so pre-thread programs keep
    bit-identical cycle counts. *)

val register_main : t -> Ia32.State.t -> unit
(** Register [st] as the main thread (tid 0); no-op if any thread is
    already registered. Thread services self-register lazily, so calling
    this is only required by vehicles that want the table populated
    up front. *)

val current : t -> int
(** Tid of the currently scheduled thread. *)

val thread_count : t -> int
val find_thread : t -> int -> thread option

val thread_state : t -> int -> Ia32.State.t
(** @raise Invalid_argument on an unknown tid. *)

val set_current : t -> int -> unit
(** Force the current tid without scheduling — used by lockstep to slave
    the reference vehicle's thread selection to the engine's commit
    stream. *)

val take_wake : thread -> int option
(** Consume the pending wake value (to be encoded as the thread's syscall
    result when it next resumes). *)

val park : t -> Ia32.State.t -> unit
(** Save [st] as the current thread's parked state. *)

val need_resched : t -> now:int -> bool
(** True when the current thread's quantum has expired or it yielded.
    Always false with fewer than two threads. *)

type schedule = Run of thread | Deadlock

val reschedule : t -> now:int -> schedule
(** Pick the next runnable thread round-robin (the current thread keeps
    running only if no other is runnable); [Deadlock] when every thread
    is blocked. *)

val deliver_exception : t -> Ia32.State.t -> Ia32.Fault.t -> exception_outcome
(** Deliver an IA-32 exception whose precise state has been reconstructed
    into [st] ([st.eip] = faulting instruction). If a handler is
    registered for the vector, switches to it with the frame
    [[esp]]=fault address, [[esp+4]]=vector, [[esp+8]]=faulting EIP
    (handlers resume with [add esp,8; ret]); otherwise returns
    [Unhandled]. *)

(** {1 Checkpoint / restore}

    OS-level snapshot support: captures kernel scalars, the handler
    table, console-output length and the full thread table (scheduling
    fields plus deep copies of each thread's architectural state).
    Guest memory is journalled separately ([Ia32.Memory.Journal]); the
    snapshot layer above rewinds both together.

    [restore] works in place: thread records keep their identity and
    each gets back the state {e object} it held at capture time with the
    captured values blitted in, so external references (the state the
    harness passed to the engine) stay valid. Threads spawned after the
    capture are dropped. The [clock], [transient_fault] and [trace]
    hooks are left untouched — they are harness wiring, not guest
    state. *)

type checkpoint

val checkpoint : t -> checkpoint
val restore : t -> checkpoint -> unit
