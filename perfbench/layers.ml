(* Per-layer measurements for the traced run: stage times from the
   runtime's own trace events, and replays of the run's messages and
   log records through single layers ([Wire_codec], [Protocol], [Wal])
   timed from outside. *)

module Types = Svs_core.Types
module View = Svs_core.View
module Protocol = Svs_core.Protocol
module Wire_codec = Svs_core.Wire_codec
module Codec = Svs_codec.Codec
module Wal = Svs_rt.Wal
module Trace = Svs_telemetry.Trace
module Floats = Samples.Floats

let now = Samples.now

let minor_words () = Gc.minor_words ()

(* --- Trace stages ----------------------------------------------------- *)

(* First time each message of sender 0 reached each boundary, indexed
   by sequence number (and node). Trace times are the loop's wall
   clock, so only differences between them are used. *)
type stages = {
  n_nodes : int;
  mcast : Floats.t;
  tx : Floats.t;  (* sn * n_nodes + dst *)
  rx : Floats.t;  (* sn * n_nodes + node *)
  deliver : Floats.t;
  stable : Floats.t;
}

let stages ~n_nodes =
  {
    n_nodes;
    mcast = Floats.create ();
    tx = Floats.create ();
    rx = Floats.create ();
    deliver = Floats.create ();
    stable = Floats.create ();
  }

let first buf i time =
  Floats.ensure buf (i + 1);
  if Float.is_nan (Floats.get buf i) then Floats.set buf i time

(* Fold the tracer's buffered records into [s] and clear it. *)
let absorb s tracer =
  let n = s.n_nodes in
  List.iter
    (fun { Trace.time; event; _ } ->
      match event with
      | Trace.Multicast { node = 0; sn; _ } -> first s.mcast sn time
      | Trace.Tx { sender = 0; dst; sn; _ } -> first s.tx ((sn * n) + dst) time
      | Trace.Rx { sender = 0; node; sn; _ } -> first s.rx ((sn * n) + node) time
      | Trace.Deliver { sender = 0; node; sn; _ } -> first s.deliver ((sn * n) + node) time
      | Trace.StableMsg { sender = 0; node; sn } -> first s.stable ((sn * n) + node) time
      | _ -> ())
    (Trace.records tracer);
  Trace.clear tracer

(* Sorted differences [later - earlier] over every message and node
   where both ends were seen. *)
let spans s ~earlier ~later ~nodes =
  let out = Floats.create () in
  let n = s.n_nodes in
  let msgs = Floats.length s.mcast in
  for sn = 0 to msgs - 1 do
    List.iter
      (fun node ->
        let i = (sn * n) + node in
        let a = earlier sn node and b = if i < Floats.length later then Floats.get later i else Float.nan in
        if not (Float.is_nan a || Float.is_nan b) then Floats.push out (b -. a))
      nodes
  done;
  Floats.sorted out

let at buf i = if i < Floats.length buf then Floats.get buf i else Float.nan

type stage_report = {
  mcast_to_tx : float array;
  tx_to_rx : float array;
  rx_to_deliver : float array;
  deliver_to_stable : float array;
}

let stage_report s =
  let n = s.n_nodes in
  let remote = List.init (n - 1) (fun i -> i + 1) in
  let all = List.init n Fun.id in
  {
    mcast_to_tx = spans s ~earlier:(fun sn _ -> at s.mcast sn) ~later:s.tx ~nodes:remote;
    tx_to_rx = spans s ~earlier:(fun sn node -> at s.tx ((sn * n) + node)) ~later:s.rx ~nodes:remote;
    rx_to_deliver =
      spans s ~earlier:(fun sn node -> at s.rx ((sn * n) + node)) ~later:s.deliver ~nodes:remote;
    deliver_to_stable =
      spans s ~earlier:(fun sn node -> at s.deliver ((sn * n) + node)) ~later:s.stable ~nodes:all;
  }

(* --- Wire_codec replay ------------------------------------------------ *)

type codec_report = { encode_ns : float; decode_ns : float; bytes_per_msg : float; words_per_msg : float }

(* Encode then decode every message as a DATA frame, repeating passes
   until [budget] seconds per direction are spent. *)
let wire_codec codec (msgs : 'p Types.data array) ~budget =
  let n = Array.length msgs in
  let w = Codec.Writer.create ~initial_capacity:2048 () in
  let encoded = Array.map (fun d -> Wire_codec.wire_to_string codec (Types.Wdata d)) msgs in
  let bytes = Array.fold_left (fun acc s -> acc + String.length s) 0 encoded in
  let timed pass =
    let words0 = minor_words () in
    let t0 = now () in
    let passes = ref 0 in
    while !passes = 0 || now () -. t0 < budget do
      pass ();
      incr passes
    done;
    let dt = now () -. t0 in
    let per = float_of_int (!passes * n) in
    (dt /. per *. 1e9, (minor_words () -. words0) /. per)
  in
  let encode_ns, enc_words =
    timed (fun () ->
        Array.iter
          (fun d ->
            Codec.Writer.clear w;
            Wire_codec.write_wire codec w (Types.Wdata d))
          msgs)
  in
  let decode_ns, dec_words =
    timed (fun () ->
        Array.iter
          (fun s -> ignore (Sys.opaque_identity (Wire_codec.read_wire codec (Codec.Reader.of_string s))))
          encoded)
  in
  {
    encode_ns;
    decode_ns;
    bytes_per_msg = float_of_int bytes /. float_of_int (max 1 n);
    words_per_msg = enc_words +. dec_words;
  }

(* --- Protocol replay --------------------------------------------------- *)

type protocol_report = {
  multicast_ns : float;
  receive_ns : float;
  deliver_ns : float;
  proto_words_per_msg : float;
}

(* Three [Protocol] instances wired directly (process 0's outputs are
   handed to the destinations' [receive]); processes 0 and 1 deliver
   eagerly, process 2 pulls [pull_ratio] deliveries per multicast.
   Passes with fresh instances repeat until [budget] seconds. *)
let protocol (payloads : 'p array) (anns : Svs_obs.Annotation.t array) ~pull_ratio ~budget =
  let n = Array.length payloads in
  let view = View.initial ~members:[ 0; 1; 2 ] in
  let t_mcast = ref 0.0 and t_recv = ref 0.0 and t_deliver = ref 0.0 in
  let mcasts = ref 0 and recvs = ref 0 and delivers = ref 0 in
  let words0 = minor_words () in
  let start = now () in
  while !mcasts = 0 || now () -. start < budget do
    let ps =
      Array.init 3 (fun me -> Protocol.create ~me ~initial_view:view ~suspects:(fun _ -> false) ())
    in
    let credit = ref 0.0 in
    let drain p ~limit =
      let t0 = now () in
      let rec go k =
        if k < limit then
          match Protocol.deliver ps.(p) with
          | Some (Types.Data _) ->
              incr delivers;
              go (k + 1)
          | Some (Types.View_change _) -> go k
          | None -> k
        else k
      in
      let k = go 0 in
      t_deliver := !t_deliver +. (now () -. t0);
      k
    in
    for i = 0 to n - 1 do
      let t0 = now () in
      ignore (Protocol.multicast ps.(0) ~ann:anns.(i) payloads.(i));
      let outs = Protocol.take_outputs ps.(0) in
      let t1 = now () in
      List.iter
        (function
          | Types.Send { dst; wire } ->
              Protocol.receive ps.(dst) ~src:0 wire;
              incr recvs
          | _ -> ())
        outs;
      t_mcast := !t_mcast +. (t1 -. t0);
      t_recv := !t_recv +. (now () -. t1);
      incr mcasts;
      ignore (drain 0 ~limit:max_int);
      ignore (drain 1 ~limit:max_int);
      credit := !credit +. pull_ratio;
      let pulled = drain 2 ~limit:(int_of_float !credit) in
      credit := !credit -. float_of_int pulled
    done;
    ignore (drain 2 ~limit:max_int)
  done;
  let per count total = total /. float_of_int (max 1 count) *. 1e9 in
  {
    multicast_ns = per !mcasts !t_mcast;
    receive_ns = per !recvs !t_recv;
    deliver_ns = per !delivers !t_deliver;
    proto_words_per_msg = (minor_words () -. words0) /. float_of_int (max 1 !mcasts);
  }

(* --- Wal replay ---------------------------------------------------------- *)

type wal_report = { append_ns : float; sync_us : float array (* sorted *) }

(* The run's log shape: [appends_per_sync] delivery-floor records, then
   a group-commit sync, repeated [syncs] times (or until [budget]
   seconds) on a fresh log in [dir]. *)
let wal ~dir ~appends_per_sync ~syncs ~budget =
  let w, _ = Wal.open_exn ~dir ~me:0 () in
  let t_append = ref 0.0 and appends = ref 0 in
  let sync_us = Floats.create () in
  let sn = ref 0 in
  let start = now () in
  let s = ref 0 in
  while !s < max 1 syncs && (!s = 0 || now () -. start < budget) do
    let t0 = now () in
    for _ = 1 to appends_per_sync do
      Wal.append w (Wal.Floor { sender = 0; sn = !sn });
      incr sn
    done;
    let t1 = now () in
    Wal.sync w;
    Floats.push sync_us ((now () -. t1) *. 1e6);
    t_append := !t_append +. (t1 -. t0);
    appends := !appends + appends_per_sync;
    incr s
  done;
  Wal.close w;
  {
    append_ns = (if !appends = 0 then 0.0 else !t_append /. float_of_int !appends *. 1e9);
    sync_us = Floats.sorted sync_us;
  }
