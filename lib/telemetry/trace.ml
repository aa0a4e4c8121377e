type site = At_multicast | At_receive | At_install

type event =
  | Multicast of { node : int; view_id : int; sn : int }
  | Tx of { node : int; dst : int; sender : int; sn : int; view_id : int }
  | Rx of { node : int; src : int; sender : int; sn : int; view_id : int }
  | Deliver of { node : int; view_id : int; sender : int; sn : int }
  | StableMsg of { node : int; sender : int; sn : int }
  | Purge of { node : int; view_id : int; at_step : site; sender : int; sn : int }
  | Evict of { node : int; view_id : int; sender : int; sn : int }
  | ViewInstall of { node : int; view_id : int; members : int list }
  | ConsensusDecide of { node : int; view_id : int }
  | Suspect of { node : int; suspect : int }
  | Block of { node : int; view_id : int }
  | Unblock of { node : int; view_id : int }
  | TcpReconnect of { node : int; peer : int }
  | TcpDrop of { node : int; peer : int; reason : string }
  | Quarantine of { node : int; peer : int; score : int }
  | Fault of { kind : string; node : int; peer : int }
  | Join of { node : int; contact : int }
  | StateTransfer of { node : int; peer : int; bytes : int }
  | WalRecovery of {
      node : int;
      records : int;
      truncated : int;
      skipped : int;
      tainted : bool;
    }
  | Divergence of { node : int; view_id : int }
  | Parked of { node : int; view_id : int }
  | Merge of { node : int; view_id : int; parked_ms : int }
  | Backpressure of { node : int; peer : int; stage : string; pending : int }
  | Shed of { node : int; peer : int; sender : int; sn : int }

type record = { time : float; seq : int; event : event }

type sink =
  | Nop
  | Memory of record Queue.t
  | Jsonl of out_channel
  | Ring of { q : record Queue.t; capacity : int }
  | Tee of t * t

and t = {
  sink : sink;
  mutable clock : unit -> float;
  mutable seq : int;
}

let zero_clock () = 0.0

let nop = { sink = Nop; clock = zero_clock; seq = 0 }

let memory ?(clock = zero_clock) () = { sink = Memory (Queue.create ()); clock; seq = 0 }

let jsonl ?(clock = zero_clock) oc = { sink = Jsonl oc; clock; seq = 0 }

let ring ?(clock = zero_clock) ?(capacity = 4096) () =
  if capacity <= 0 then invalid_arg "Trace.ring: capacity must be positive";
  { sink = Ring { q = Queue.create (); capacity }; clock; seq = 0 }

let tee a b = { sink = Tee (a, b); clock = zero_clock; seq = 0 }

let rec enabled t =
  match t.sink with
  | Nop -> false
  | Memory _ | Jsonl _ | Ring _ -> true
  | Tee (a, b) -> enabled a || enabled b

let now t = t.clock ()

let rec set_clock t clock =
  match t.sink with
  | Nop -> ()
  | Memory _ | Jsonl _ | Ring _ -> t.clock <- clock
  | Tee (a, b) ->
      t.clock <- clock;
      set_clock a clock;
      set_clock b clock

let rec records t =
  match t.sink with
  | Memory q | Ring { q; _ } -> List.of_seq (Queue.to_seq q)
  | Nop | Jsonl _ -> []
  (* Both branches saw the same stream; concatenating would duplicate
     it. Prefer the first branch that actually buffers. *)
  | Tee (a, b) -> ( match records a with [] -> records b | rs -> rs)

let rec clear t =
  match t.sink with
  | Memory q | Ring { q; _ } -> Queue.clear q
  | Nop | Jsonl _ -> ()
  | Tee (a, b) ->
      clear a;
      clear b

let rec flush t =
  match t.sink with
  | Jsonl oc -> Stdlib.flush oc
  | Nop | Memory _ | Ring _ -> ()
  | Tee (a, b) ->
      flush a;
      flush b

let site_name = function
  | At_multicast -> "multicast"
  | At_receive -> "receive"
  | At_install -> "install"

let site_of_name = function
  | "multicast" -> Some At_multicast
  | "receive" -> Some At_receive
  | "install" -> Some At_install
  | _ -> None

(* Shortest representation that still round-trips. *)
let float_str f =
  let s = Printf.sprintf "%.12g" f in
  if float_of_string s = f then s else Printf.sprintf "%.17g" f

let record_to_json { time; seq; event } =
  let b = Buffer.create 96 in
  Buffer.add_string b (Printf.sprintf "{\"t\":%s,\"seq\":%d,\"ev\":" (float_str time) seq);
  let field name v = Buffer.add_string b (Printf.sprintf ",\"%s\":%d" name v) in
  (match event with
  | Multicast { node; view_id; sn } ->
      Buffer.add_string b "\"multicast\"";
      field "node" node;
      field "view" view_id;
      field "sn" sn
  | Tx { node; dst; sender; sn; view_id } ->
      Buffer.add_string b "\"tx\"";
      field "node" node;
      field "dst" dst;
      field "sender" sender;
      field "sn" sn;
      field "view" view_id
  | Rx { node; src; sender; sn; view_id } ->
      Buffer.add_string b "\"rx\"";
      field "node" node;
      field "src" src;
      field "sender" sender;
      field "sn" sn;
      field "view" view_id
  | Deliver { node; view_id; sender; sn } ->
      Buffer.add_string b "\"deliver\"";
      field "node" node;
      field "view" view_id;
      field "sender" sender;
      field "sn" sn
  | StableMsg { node; sender; sn } ->
      Buffer.add_string b "\"stable\"";
      field "node" node;
      field "sender" sender;
      field "sn" sn
  | Purge { node; view_id; at_step; sender; sn } ->
      Buffer.add_string b "\"purge\"";
      field "node" node;
      field "view" view_id;
      Buffer.add_string b (Printf.sprintf ",\"site\":\"%s\"" (site_name at_step));
      field "sender" sender;
      field "sn" sn
  | Evict { node; view_id; sender; sn } ->
      Buffer.add_string b "\"evict\"";
      field "node" node;
      field "view" view_id;
      field "sender" sender;
      field "sn" sn
  | ViewInstall { node; view_id; members } ->
      Buffer.add_string b "\"view_install\"";
      field "node" node;
      field "view" view_id;
      Buffer.add_string b ",\"members\":[";
      List.iteri
        (fun i p ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b (string_of_int p))
        members;
      Buffer.add_char b ']'
  | ConsensusDecide { node; view_id } ->
      Buffer.add_string b "\"consensus_decide\"";
      field "node" node;
      field "view" view_id
  | Suspect { node; suspect } ->
      Buffer.add_string b "\"suspect\"";
      field "node" node;
      field "suspect" suspect
  | Block { node; view_id } ->
      Buffer.add_string b "\"block\"";
      field "node" node;
      field "view" view_id
  | Unblock { node; view_id } ->
      Buffer.add_string b "\"unblock\"";
      field "node" node;
      field "view" view_id
  | TcpReconnect { node; peer } ->
      Buffer.add_string b "\"tcp_reconnect\"";
      field "node" node;
      field "peer" peer
  | TcpDrop { node; peer; reason } ->
      Buffer.add_string b "\"tcp_drop\"";
      field "node" node;
      field "peer" peer;
      Buffer.add_string b (Printf.sprintf ",\"reason\":\"%s\"" reason)
  | Quarantine { node; peer; score } ->
      Buffer.add_string b "\"quarantine\"";
      field "node" node;
      field "peer" peer;
      field "score" score
  | Fault { kind; node; peer } ->
      Buffer.add_string b "\"fault\"";
      Buffer.add_string b (Printf.sprintf ",\"kind\":\"%s\"" kind);
      field "node" node;
      field "peer" peer
  | Join { node; contact } ->
      Buffer.add_string b "\"join\"";
      field "node" node;
      field "contact" contact
  | StateTransfer { node; peer; bytes } ->
      Buffer.add_string b "\"state_transfer\"";
      field "node" node;
      field "peer" peer;
      field "bytes" bytes
  | WalRecovery { node; records; truncated; skipped; tainted } ->
      Buffer.add_string b "\"wal_recovery\"";
      field "node" node;
      field "records" records;
      field "truncated" truncated;
      field "skipped" skipped;
      field "tainted" (if tainted then 1 else 0)
  | Divergence { node; view_id } ->
      Buffer.add_string b "\"divergence\"";
      field "node" node;
      field "view" view_id
  | Parked { node; view_id } ->
      Buffer.add_string b "\"parked\"";
      field "node" node;
      field "view" view_id
  | Merge { node; view_id; parked_ms } ->
      Buffer.add_string b "\"merge\"";
      field "node" node;
      field "view" view_id;
      field "parked_ms" parked_ms
  | Backpressure { node; peer; stage; pending } ->
      Buffer.add_string b "\"backpressure\"";
      field "node" node;
      field "peer" peer;
      Buffer.add_string b (Printf.sprintf ",\"stage\":\"%s\"" stage);
      field "pending" pending
  | Shed { node; peer; sender; sn } ->
      Buffer.add_string b "\"shed\"";
      field "node" node;
      field "peer" peer;
      field "sender" sender;
      field "sn" sn);
  Buffer.add_char b '}';
  Buffer.contents b

let rec emit t event =
  match t.sink with
  | Nop -> ()
  | Memory q ->
      let r = { time = t.clock (); seq = t.seq; event } in
      t.seq <- t.seq + 1;
      Queue.add r q
  | Jsonl oc ->
      let r = { time = t.clock (); seq = t.seq; event } in
      t.seq <- t.seq + 1;
      output_string oc (record_to_json r);
      output_char oc '\n'
  | Ring { q; capacity } ->
      let r = { time = t.clock (); seq = t.seq; event } in
      t.seq <- t.seq + 1;
      if Queue.length q >= capacity then ignore (Queue.pop q : record);
      Queue.add r q
  | Tee (a, b) ->
      emit a event;
      emit b event

(* --- Minimal JSON parser for the flat objects emitted above --- *)

exception Bad

type jv = Num of float | Str of string | Arr of int list

let record_of_json line =
  let n = String.length line in
  let pos = ref 0 in
  let peek () = if !pos >= n then raise Bad else line.[!pos] in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match line.[!pos] with ' ' | '\t' | '\r' | '\n' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    skip_ws ();
    if peek () <> c then raise Bad;
    advance ()
  in
  let parse_string () =
    expect '"';
    let start = !pos in
    while peek () <> '"' do
      if peek () = '\\' then raise Bad (* never emitted *);
      advance ()
    done;
    let s = String.sub line start (!pos - start) in
    advance ();
    s
  in
  let parse_number () =
    skip_ws ();
    let start = !pos in
    while
      !pos < n
      && match line.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    do
      advance ()
    done;
    if !pos = start then raise Bad;
    match float_of_string_opt (String.sub line start (!pos - start)) with
    | Some f -> f
    | None -> raise Bad
  in
  let parse_value () =
    skip_ws ();
    match peek () with
    | '"' -> Str (parse_string ())
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then begin
          advance ();
          Arr []
        end
        else begin
          let items = ref [] in
          let continue = ref true in
          while !continue do
            items := int_of_float (parse_number ()) :: !items;
            skip_ws ();
            match peek () with
            | ',' -> advance ()
            | ']' ->
                advance ();
                continue := false
            | _ -> raise Bad
          done;
          Arr (List.rev !items)
        end
    | _ -> Num (parse_number ())
  in
  let parse_object () =
    expect '{';
    let fields = ref [] in
    skip_ws ();
    if peek () = '}' then advance ()
    else begin
      let continue = ref true in
      while !continue do
        skip_ws ();
        let key = parse_string () in
        expect ':';
        let v = parse_value () in
        fields := (key, v) :: !fields;
        skip_ws ();
        match peek () with
        | ',' -> advance ()
        | '}' ->
            advance ();
            continue := false
        | _ -> raise Bad
      done
    end;
    List.rev !fields
  in
  let build fields =
    let num k = match List.assoc_opt k fields with Some (Num f) -> f | _ -> raise Bad in
    let int k = int_of_float (num k) in
    (* For fields added after records were first written: old lines
       parse with the default. *)
    let int_or d k =
      match List.assoc_opt k fields with Some (Num f) -> int_of_float f | _ -> d
    in
    let str k = match List.assoc_opt k fields with Some (Str s) -> s | _ -> raise Bad in
    let arr k = match List.assoc_opt k fields with Some (Arr l) -> l | _ -> raise Bad in
    let event =
      match str "ev" with
      | "multicast" -> Multicast { node = int "node"; view_id = int "view"; sn = int "sn" }
      | "tx" ->
          Tx
            {
              node = int "node";
              dst = int "dst";
              sender = int "sender";
              sn = int "sn";
              view_id = int "view";
            }
      | "rx" ->
          Rx
            {
              node = int "node";
              src = int "src";
              sender = int "sender";
              sn = int "sn";
              view_id = int "view";
            }
      | "deliver" ->
          Deliver { node = int "node"; view_id = int "view"; sender = int "sender"; sn = int "sn" }
      | "stable" -> StableMsg { node = int "node"; sender = int "sender"; sn = int "sn" }
      | "purge" ->
          let at_step = match site_of_name (str "site") with Some s -> s | None -> raise Bad in
          Purge
            { node = int "node"; view_id = int "view"; at_step; sender = int "sender"; sn = int "sn" }
      | "evict" ->
          Evict { node = int "node"; view_id = int "view"; sender = int "sender"; sn = int "sn" }
      | "view_install" ->
          ViewInstall { node = int "node"; view_id = int "view"; members = arr "members" }
      | "consensus_decide" -> ConsensusDecide { node = int "node"; view_id = int "view" }
      | "suspect" -> Suspect { node = int "node"; suspect = int "suspect" }
      | "block" -> Block { node = int "node"; view_id = int "view" }
      | "unblock" -> Unblock { node = int "node"; view_id = int "view" }
      | "tcp_reconnect" -> TcpReconnect { node = int "node"; peer = int "peer" }
      | "tcp_drop" -> TcpDrop { node = int "node"; peer = int "peer"; reason = str "reason" }
      | "quarantine" -> Quarantine { node = int "node"; peer = int "peer"; score = int "score" }
      | "fault" -> Fault { kind = str "kind"; node = int "node"; peer = int "peer" }
      | "join" -> Join { node = int "node"; contact = int "contact" }
      | "state_transfer" ->
          StateTransfer { node = int "node"; peer = int "peer"; bytes = int "bytes" }
      | "wal_recovery" ->
          WalRecovery
            {
              node = int "node";
              records = int "records";
              truncated = int "truncated";
              skipped = int_or 0 "skipped";
              tainted = int_or 0 "tainted" <> 0;
            }
      | "divergence" -> Divergence { node = int "node"; view_id = int "view" }
      | "parked" -> Parked { node = int "node"; view_id = int "view" }
      | "merge" ->
          Merge { node = int "node"; view_id = int "view"; parked_ms = int "parked_ms" }
      | "backpressure" ->
          Backpressure
            { node = int "node"; peer = int "peer"; stage = str "stage"; pending = int "pending" }
      | "shed" -> Shed { node = int "node"; peer = int "peer"; sender = int "sender"; sn = int "sn" }
      | _ -> raise Bad
    in
    { time = num "t"; seq = int "seq"; event }
  in
  match build (parse_object ()) with r -> Some r | exception Bad -> None

let pp_event ppf = function
  | Multicast { node; view_id; sn } ->
      Format.fprintf ppf "multicast(node=%d view=%d sn=%d)" node view_id sn
  | Tx { node; dst; sender; sn; view_id } ->
      Format.fprintf ppf "tx(node=%d dst=%d msg=%d:%d view=%d)" node dst sender sn view_id
  | Rx { node; src; sender; sn; view_id } ->
      Format.fprintf ppf "rx(node=%d src=%d msg=%d:%d view=%d)" node src sender sn view_id
  | Deliver { node; view_id; sender; sn } ->
      Format.fprintf ppf "deliver(node=%d view=%d msg=%d:%d)" node view_id sender sn
  | StableMsg { node; sender; sn } ->
      Format.fprintf ppf "stable(node=%d msg=%d:%d)" node sender sn
  | Purge { node; view_id; at_step; sender; sn } ->
      Format.fprintf ppf "purge(node=%d view=%d site=%s msg=%d:%d)" node view_id
        (site_name at_step) sender sn
  | Evict { node; view_id; sender; sn } ->
      Format.fprintf ppf "evict(node=%d view=%d msg=%d:%d)" node view_id sender sn
  | ViewInstall { node; view_id; members } ->
      Format.fprintf ppf "view_install(node=%d view=%d members={%a})" node view_id
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
           Format.pp_print_int)
        members
  | ConsensusDecide { node; view_id } ->
      Format.fprintf ppf "consensus_decide(node=%d view=%d)" node view_id
  | Suspect { node; suspect } -> Format.fprintf ppf "suspect(node=%d suspect=%d)" node suspect
  | Block { node; view_id } -> Format.fprintf ppf "block(node=%d view=%d)" node view_id
  | Unblock { node; view_id } -> Format.fprintf ppf "unblock(node=%d view=%d)" node view_id
  | TcpReconnect { node; peer } ->
      Format.fprintf ppf "tcp_reconnect(node=%d peer=%d)" node peer
  | TcpDrop { node; peer; reason } ->
      Format.fprintf ppf "tcp_drop(node=%d peer=%d reason=%s)" node peer reason
  | Quarantine { node; peer; score } ->
      Format.fprintf ppf "quarantine(node=%d peer=%d score=%d)" node peer score
  | Fault { kind; node; peer } -> Format.fprintf ppf "fault(kind=%s node=%d peer=%d)" kind node peer
  | Join { node; contact } -> Format.fprintf ppf "join(node=%d contact=%d)" node contact
  | StateTransfer { node; peer; bytes } ->
      Format.fprintf ppf "state_transfer(node=%d peer=%d bytes=%d)" node peer bytes
  | WalRecovery { node; records; truncated; skipped; tainted } ->
      Format.fprintf ppf "wal_recovery(node=%d records=%d truncated=%d skipped=%d tainted=%b)"
        node records truncated skipped tainted
  | Divergence { node; view_id } ->
      Format.fprintf ppf "divergence(node=%d view=%d)" node view_id
  | Parked { node; view_id } -> Format.fprintf ppf "parked(node=%d view=%d)" node view_id
  | Merge { node; view_id; parked_ms } ->
      Format.fprintf ppf "merge(node=%d view=%d parked_ms=%d)" node view_id parked_ms
  | Backpressure { node; peer; stage; pending } ->
      Format.fprintf ppf "backpressure(node=%d peer=%d stage=%s pending=%d)" node peer stage
        pending
  | Shed { node; peer; sender; sn } ->
      Format.fprintf ppf "shed(node=%d peer=%d msg=%d:%d)" node peer sender sn
