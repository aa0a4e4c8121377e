(** Heartbeat-based eventually-perfect failure detector (one monitor
    per process).

    The monitor is transport-agnostic: it is given a [send_heartbeat]
    function and must be fed inbound heartbeats via {!on_heartbeat}.
    Peers are suspected when no heartbeat arrived within their current
    timeout; a heartbeat from a suspected peer rescinds the suspicion
    and increases that peer's timeout, so in runs where message delays
    stabilise, suspicions are eventually accurate (◊P). *)

type t

type config = {
  period : float;  (** Interval between heartbeats sent to each peer. *)
  initial_timeout : float;
  timeout_increment : float;
      (** Added to a peer's timeout on each false suspicion. *)
  max_timeout : float;
      (** Ceiling for the adaptive timeout: without it a single long
          latency spike (many false suspicions in a row) would
          desensitize the detector permanently. Must be at least
          [initial_timeout]. *)
}

val default_config : config

val create :
  Svs_sim.Engine.t ->
  config ->
  me:int ->
  peers:int list ->
  send_heartbeat:(dst:int -> unit) ->
  t
(** Starts the periodic heartbeat and monitoring tasks immediately. *)

val on_heartbeat : t -> src:int -> unit
(** Feed a received heartbeat from [src]. *)

val suspects : t -> int -> bool

val suspected_set : t -> int list

val on_suspect : t -> (int -> unit) -> unit
(** Called each time a peer becomes (newly) suspected. *)

val on_rescind : t -> (int -> unit) -> unit
(** Called when a suspicion is rescinded by a late heartbeat. *)

val timeout_of : t -> int -> float
(** Current adaptive timeout for a peer (for tests/inspection). *)

val stop : t -> unit
(** Cancel the periodic tasks (e.g. when the process crashes). *)
