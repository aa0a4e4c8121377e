(** Semantically reliable total-order multicast (fixed sequencer).

    An ordered member of the paper's §7 toolkit. Senders
    broadcast data; the sequencer (lowest member id) assigns a global
    sequence which every member follows, so all members deliver
    surviving messages in the same order. Purging is receiver-side:
    when a buffered message is obsoleted by a newer one, its payload is
    dropped and its sequence slot is skipped at delivery time — every
    member still skips/delivers the same slots in the same order
    because obsolescence is decided by the (deterministic) annotations.

    Static membership, FIFO-reliable channels, transport-agnostic. *)

type 'p msg

type 'p data = {
  id : Svs_obs.Msg_id.t;
  payload : 'p;
  ann : Svs_obs.Annotation.t;
}

type 'p t

val create :
  me:int ->
  members:int list ->
  ?semantic:bool ->
  send:(dst:int -> 'p msg -> unit) ->
  unit ->
  'p t

val sequencer : 'p t -> int

val multicast : 'p t -> ?ann:Svs_obs.Annotation.t -> 'p -> 'p data

val on_message : 'p t -> src:int -> 'p msg -> unit

val deliver : 'p t -> (int * 'p data) option
(** Next in-order, non-obsolete message with its global sequence
    number; [None] if the next slot is not yet deliverable. *)

val deliver_all : 'p t -> (int * 'p data) list

val next_seq : 'p t -> int
(** The global sequence slot this member will deliver (or skip) next. *)

val pending : 'p t -> int

val purged : 'p t -> int

val write_msg :
  (Svs_codec.Codec.Writer.t -> 'p -> unit) -> Svs_codec.Codec.Writer.t -> 'p msg -> unit
(** Wire encoding, so the toolkit also runs over real transports. *)

val read_msg :
  (Svs_codec.Codec.Reader.t -> 'p) -> Svs_codec.Codec.Reader.t -> 'p msg
