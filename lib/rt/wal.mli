(** Durable write-ahead log for a runtime node's recoverable protocol
    state: identity, last installed view, per-sender delivery floors
    and a sequence-number lease.

    The log is a directory of append-only segment files. Every record
    is framed as [[u32 length][u32 crc32][payload]] (CRC32/IEEE,
    hand-rolled — no external dependency), so recovery can tell a torn
    tail from valid data.

    Recovery runs a {e salvage scan} by default: every frame with a
    valid checksum is replayed, corrupt regions (bit-flips, torn
    interior writes) are skipped by hunting forward for the next
    plausible frame header, and the damaged bytes are quarantined to a
    [<segment>.corrupt] sidecar for postmortem rather than silently
    destroyed. Replay is monotonic — views only move to higher ids,
    floors and the lease ceiling only ratchet up — so duplicated or
    reordered records resurrected by the scan cannot roll state
    backwards. A plain torn tail on the last segment (the ordinary
    crash leftover) is chopped exactly as before. When interior bytes
    were skipped, the surviving state is rewritten into a fresh
    segment so the log replays cleanly next time.

    The {!recovery.tainted} flag reports when the scan discarded bytes
    {e without} a later valid [Snapshot] proving the state suffix
    intact: a durable [Lease] or [Floor] may have been destroyed, so
    the caller must not trust the recovered lease ceiling (the runtime
    node responds by over-provisioning its lease and re-joining via
    state transfer instead of assuming "sn on wire ⇒ durable lease"
    still holds).

    Appends are group-committed: {!append} frames the record into an
    in-memory tail (one reusable buffer, no per-record allocation or
    syscall), the tail reaches the kernel at a watermark (256 KiB) or
    on {!sync}, and {!sync} flushes plus fsyncs — the caller picks the
    point on the latency/durability curve per record (a sequence-number
    {!record.Lease} must be durable {e before} any leased number is
    used, while delivery floors ride the periodic sync: {!note_floor}
    keeps the latest per sender in memory and {!sync} writes one
    [Floor] per sender that moved).
    A crash between an append and the next sync loses at most the tail,
    which recovery treats exactly like a torn write.

    When a segment outgrows its limit the log rotates: the next
    segment opens with an identity stamp and a [Snapshot] of the
    replayed state, is fsynced, and the older segments are deleted —
    the log's size stays proportional to live state, not history. *)

type t

type record =
  | Snapshot of {
      view : Svs_core.View.t option;
      floors : (int * int) list;
      next_sn : int;
    }
      (** Full recoverable state; written at rotation. On replay it
          merges monotonically (it dominates everything before it in a
          well-formed log). *)
  | Install of Svs_core.View.t  (** A view was installed. *)
  | Floor of { sender : int; sn : int }
      (** Delivery floor advanced: everything from [sender] up to and
          including [sn] has been delivered (or covered). *)
  | Lease of { next_sn : int }
      (** Sequence numbers below [next_sn] may have been used; a
          restarted incarnation must not reuse them. Make it durable
          before using any leased number. *)

type recovery = {
  view : Svs_core.View.t option;  (** Last installed view, if any. *)
  floors : (int * int) list;
  next_sn : int;  (** First safe sequence number (the lease ceiling). *)
  records : int;  (** Valid frames replayed. *)
  truncated : int;  (** Damaged bytes discarded (torn tail, bad CRC). *)
  skipped : int;
      (** Corrupt interior regions skipped by the salvage scan and
          quarantined to a [.corrupt] sidecar (0 = clean log or plain
          torn tail). *)
  tainted : bool;
      (** True when bytes were discarded with no later valid
          [Snapshot] proving the suffix intact — the lease ceiling in
          [next_sn] may be rolled back and must not be trusted. *)
  fresh : bool;  (** True when the directory held no log at all. *)
}

type open_error =
  | Foreign_log of { dir : string; owner : int; me : int }
      (** The directory's log was written by node [owner], not [me] —
          two nodes sharing a data dir is always a deployment error. *)

exception Open_error of open_error
(** Raised by {!open_exn} when {!open_} would return an error. *)

val open_error_message : open_error -> string
(** Human-readable one-line description of an open failure. *)

val open_ :
  dir:string ->
  me:int ->
  ?segment_limit:int ->
  ?salvage:bool ->
  ?metrics:Svs_telemetry.Metrics.t ->
  unit ->
  (t * recovery, open_error) result
(** Open (creating the directory if needed) and replay the log.
    [segment_limit] (default 4 MiB) triggers rotation. [salvage]
    (default [true]) enables the salvage scan; [false] restores the
    legacy truncate-at-first-bad-frame recovery (for the chaos
    inverted self-check). [metrics] registers [wal_appends_total],
    [wal_syncs_total], [wal_rotations_total] and
    [wal_corrupt_regions_total], labelled by node. *)

val open_exn :
  dir:string ->
  me:int ->
  ?segment_limit:int ->
  ?salvage:bool ->
  ?metrics:Svs_telemetry.Metrics.t ->
  unit ->
  t * recovery
(** {!open_}, raising {!Open_error} instead of returning it. *)

val append : t -> record -> unit
(** Queue a record in the group-commit tail; durable only after the
    next {!sync}. *)

val note_floor : t -> sender:int -> sn:int -> unit
(** Note that everything from [sender] up to [sn] has been delivered.
    The floor is kept in memory (no allocation once [sender] has been
    noted before) and written by the next {!sync} as one [Floor]
    record per sender whose floor rose — so every durable point
    carries the floors noted before it, and a crash before it loses
    only floors noted since the previous one. *)

val sync : t -> unit
(** Append the floors noted since the last sync, flush the tail and
    fsync outstanding appends (no-op when clean). *)

val append_durable : t -> record -> unit
(** {!append} then {!sync}. *)

val pending_bytes : t -> int
(** Bytes queued in the group-commit tail, not yet handed to the
    kernel. *)

val current_segment : t -> int
(** Index of the segment currently appended to. *)

val close : t -> unit
(** Sync and close. Further appends raise [Invalid_argument]. *)

val abandon : t -> unit
(** Simulate a crash: discard the in-memory tail and close the fd with
    {e no} flush or fsync — what a process death between an append and
    the commit tick leaves behind. For crash-recovery tests. *)
