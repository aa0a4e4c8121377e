module Engine = Svs_sim.Engine
module Group = Svs_core.Group
module View = Svs_core.View
module Checker = Svs_core.Checker
module Oracle = Svs_chaos.Oracle
module Annotation = Svs_obs.Annotation
module Kenum_stream = Svs_obs.Kenum_stream

(* A bounded configuration: the explorer enumerates every interleaving
   of the transitions these budgets allow. Node 0 is immortal (the
   chaos harness's liveness discipline: someone must survive to anchor
   the primary component). *)
type config = {
  nodes : int;
  multicasts : int;  (** Total data multicasts (scripted, see below). *)
  crashes : int;
  restarts : int;  (** Crash–recovery rejoins ([recover:true]). *)
  probes : int;  (** JOIN-request budget shared by all joiners. *)
  partitions : (int * int) list;  (** Link pairs that may be cut (once each). *)
  heals : bool;  (** Whether cut links may heal. *)
  mode : Oracle.mode;  (** [Svs]: purging on; [Vs]: plain VS, strict check. *)
  chain : bool;
      (** In [Svs] mode, each multicast obsoletes the sender's previous
          one (k-enumeration, direct distance 1) — the relation that
          makes SVS cover equivalence distinguishable from plain VS. *)
  shed : int option;
      (** Semantic shedding threshold handed to the group's network
          config: a manual-mode link holding at least this many
          sheddable frames purges the covered tail when a newer
          covering multicast is appended. The explorer then checks
          that shedding is safe under {e every} interleaving of
          sends, deliveries and faults. [None]: shedding off. *)
  max_depth : int;
}

let default =
  {
    nodes = 3;
    multicasts = 2;
    crashes = 1;
    restarts = 0;
    probes = 0;
    partitions = [];
    heals = false;
    mode = Oracle.Svs;
    chain = true;
    shed = None;
    max_depth = 80;
  }

(* One enumerated choice. [Tick k] runs the k-th event of the engine's
   ready group (arbiter decision upcalls are the only scheduled events
   in a model-checking cluster), so equal-timestamp ties are enumerated
   too, not fixed by scheduling order. *)
type transition =
  | Deliver of { src : int; dst : int }
  | Tick of int
  | Multicast of int
  | Crash of int
  | Restart of int
  | Probe of { node : int; contact : int }
  | Cut of int * int
  | Heal of int * int

let transition_to_string = function
  | Deliver { src; dst } -> Printf.sprintf "deliver %d %d" src dst
  | Tick k -> Printf.sprintf "tick %d" k
  | Multicast p -> Printf.sprintf "multicast %d" p
  | Crash p -> Printf.sprintf "crash %d" p
  | Restart p -> Printf.sprintf "restart %d" p
  | Probe { node; contact } -> Printf.sprintf "probe %d %d" node contact
  | Cut (a, b) -> Printf.sprintf "cut %d %d" a b
  | Heal (a, b) -> Printf.sprintf "heal %d %d" a b

let transition_of_string s =
  match String.split_on_char ' ' (String.trim s) with
  | [ "deliver"; a; b ] -> Some (Deliver { src = int_of_string a; dst = int_of_string b })
  | [ "tick"; k ] -> Some (Tick (int_of_string k))
  | [ "multicast"; p ] -> Some (Multicast (int_of_string p))
  | [ "crash"; p ] -> Some (Crash (int_of_string p))
  | [ "restart"; p ] -> Some (Restart (int_of_string p))
  | [ "probe"; a; b ] -> Some (Probe { node = int_of_string a; contact = int_of_string b })
  | [ "cut"; a; b ] -> Some (Cut (int_of_string a, int_of_string b))
  | [ "heal"; a; b ] -> Some (Heal (int_of_string a, int_of_string b))
  | _ -> None
  | exception Failure _ -> None

let pp_transition ppf t = Format.pp_print_string ppf (transition_to_string t)

type sys = {
  cluster : int Group.cluster;
  cfg : config;
  mutable sent : int;
  mutable crashes_left : int;
  mutable restarts_left : int;
  mutable probes_left : int;
  mutable cut_avail : (int * int) list;
  mutable cut_active : (int * int) list;
  streams : (int, Kenum_stream.t) Hashtbl.t;
}

let payload = string_of_int

let make ?mutation cfg =
  if cfg.nodes < 2 then invalid_arg "Svs_mc.Model.make: need at least two nodes";
  List.iter
    (fun (a, b) ->
      if a < 0 || b < 0 || a >= cfg.nodes || b >= cfg.nodes || a = b then
        invalid_arg "Svs_mc.Model.make: bad partition pair")
    cfg.partitions;
  let engine = Engine.create ~seed:0 () in
  let group_config =
    {
      Group.default_config with
      semantic = (cfg.mode = Oracle.Svs);
      evict_uncovered = mutation = Some Oracle.Evict_uncovered;
      shed = cfg.shed;
      merge = false (* parking/merge is periodic machinery; MC drives rejoins explicitly *);
    }
  in
  let members = List.init cfg.nodes (fun i -> i) in
  let cluster = Group.create_cluster engine ~members ~manual_net:true ~config:group_config () in
  {
    cluster;
    cfg;
    sent = 0;
    crashes_left = cfg.crashes;
    restarts_left = cfg.restarts;
    probes_left = cfg.probes;
    cut_avail = cfg.partitions;
    cut_active = [];
    streams = Hashtbl.create 4;
  }

let checker sys = Group.checker sys.cluster

let member sys p = Group.member sys.cluster p

let survivors sys =
  List.filter_map
    (fun m -> if Group.is_member m then Some (Group.id m) else None)
    (Group.members sys.cluster)

(* The convergence contract only holds when nothing keeps survivors
   apart: an unhealed cut legitimately leaves a blocked member. *)
let converged_checkable sys = sys.cut_active = []

(* The next multicast's sender: the smallest unblocked member — a
   deterministic function of the state, so the script needs no
   separate bookkeeping and every interleaving freedom is in *when*
   the send happens, which is what the contracts care about. *)
let next_sender sys =
  if sys.sent >= sys.cfg.multicasts then None
  else
    List.find_map
      (fun m ->
        if Group.is_member m && not (Group.is_blocked m) then Some (Group.id m) else None)
      (Group.members sys.cluster)

let enabled sys =
  let c = sys.cluster in
  let n = sys.cfg.nodes in
  let acc = ref [] in
  let push t = acc := t :: !acc in
  (* Environment choices first (they are rarer, so putting them early
     surfaces fault interleavings at shallow depth), then ticks, then
     deliveries in link order, then sends. *)
  (if sys.crashes_left > 0 then
     for p = 1 to n - 1 do
       let m = member sys p in
       if Group.is_member m then begin
         let rest =
           List.filter (fun q -> Group.is_member q && Group.id q <> p) (Group.members c)
         in
         if List.length rest >= View.majority (Group.view m) then push (Crash p)
       end
     done);
  (if sys.restarts_left > 0 then
     for p = 0 to n - 1 do
       let m = member sys p in
       if
         Group.is_down m
         && not
              (List.exists
                 (fun q -> (not (Group.is_down q)) && View.mem p (Group.view q))
                 (Group.members c))
       then push (Restart p)
     done);
  (if sys.probes_left > 0 then
     for p = 0 to n - 1 do
       if Group.is_joining (member sys p) then
         for q = 0 to n - 1 do
           if q <> p && Group.is_member (member sys q) then push (Probe { node = p; contact = q })
         done
     done);
  List.iter
    (fun (a, b) ->
      if (not (Group.is_down (member sys a))) && not (Group.is_down (member sys b)) then
        push (Cut (a, b)))
    sys.cut_avail;
  if sys.cfg.heals then List.iter (fun (a, b) -> push (Heal (a, b))) sys.cut_active;
  List.iteri (fun k _ -> push (Tick k)) (Engine.ready (Group.engine c));
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if
        Group.mc_inflight c ~src ~dst > 0
        && (not (Group.mc_partitioned c ~src ~dst))
        && not (Group.is_down (member sys dst))
      then push (Deliver { src; dst })
    done
  done;
  (match next_sender sys with None -> () | Some p -> push (Multicast p));
  List.rev !acc

(* Eagerly hand every deliverable message/view marker to the
   application after each transition. Sound because nothing in a
   model-checking configuration reacts to delivery *timing* (no
   bounded buffers, no periodic watchdogs), and it keeps the checker
   logs complete at every cut point. *)
let settle sys =
  List.iter
    (fun m -> ignore (Group.deliver_all m : int Svs_core.Types.delivery list))
    (Group.members sys.cluster)

let annotation sys sender =
  match sys.cfg.mode with
  | Oracle.Vs -> Annotation.Unrelated
  | Oracle.Svs when not sys.cfg.chain -> Annotation.Unrelated
  | Oracle.Svs ->
      let stream =
        match Hashtbl.find_opt sys.streams sender with
        | Some s -> s
        | None ->
            let s = Kenum_stream.create ~k:8 () in
            Hashtbl.replace sys.streams sender s;
            s
      in
      let direct = if Kenum_stream.next_sn stream > 0 then [ 1 ] else [] in
      Annotation.Kenum (Kenum_stream.push stream ~direct)

let apply sys tr =
  (match tr with
  | Deliver { src; dst } -> ignore (Group.mc_deliver sys.cluster ~src ~dst : bool)
  | Tick k -> (
      let eng = Group.engine sys.cluster in
      match List.nth_opt (Engine.ready eng) k with
      | Some ev -> Engine.step_ready eng ev
      | None -> invalid_arg "Svs_mc.Model.apply: tick index out of range")
  | Multicast p -> (
      let m = member sys p in
      let ann = annotation sys p in
      match Group.multicast m ~ann sys.sent with
      | Ok _ -> sys.sent <- sys.sent + 1
      | Error _ -> invalid_arg "Svs_mc.Model.apply: multicast not enabled")
  | Crash p ->
      Group.crash sys.cluster p;
      sys.crashes_left <- sys.crashes_left - 1
  | Restart p ->
      Group.restart sys.cluster p ~recover:true;
      sys.restarts_left <- sys.restarts_left - 1
  | Probe { node; contact } ->
      Group.request_join (member sys node) ~contact;
      sys.probes_left <- sys.probes_left - 1
  | Cut (a, b) ->
      Group.partition sys.cluster a b;
      sys.cut_avail <- List.filter (fun pr -> pr <> (a, b)) sys.cut_avail;
      sys.cut_active <- sys.cut_active @ [ (a, b) ]
  | Heal (a, b) ->
      Group.heal sys.cluster a b;
      sys.cut_active <- List.filter (fun pr -> pr <> (a, b)) sys.cut_active);
  settle sys

let fingerprint sys =
  let st = Group.mc_state sys.cluster ~payload in
  let b = Buffer.create 512 in
  List.iter
    (fun (p, d) ->
      Buffer.add_string b (string_of_int p);
      Buffer.add_string b d)
    st.Group.mc_nodes;
  Buffer.add_char b '/';
  List.iter
    (fun ((src, dst), d) ->
      Buffer.add_string b (Printf.sprintf "%d>%d" src dst);
      Buffer.add_string b d)
    st.Group.mc_links;
  Buffer.add_char b '/';
  Buffer.add_string b st.Group.mc_global;
  Buffer.add_string b
    (Printf.sprintf "/%d.%d.%d.%d" sys.sent sys.crashes_left sys.restarts_left sys.probes_left);
  List.iter (fun (a, b') -> Buffer.add_string b (Printf.sprintf "a%d:%d" a b')) sys.cut_avail;
  List.iter (fun (a, b') -> Buffer.add_string b (Printf.sprintf "c%d:%d" a b')) sys.cut_active;
  Digest.string (Buffer.contents b)

(* Independence for the sleep-set reduction, judged in the state where
   both transitions are enabled. Only the high-traffic commutations are
   claimed — everything else is conservatively dependent:

   - DATA deliveries to distinct destinations touch only their own
     destination node (reception never sends, proposes, or reads the
     detector), so they commute; popping one link's head commutes with
     appending to the tail of the same link.
   - A control delivery (view change / SYNC / consensus) writes its
     destination, that node's outgoing links, the arbiter and the
     engine queue — two control deliveries conflict on the shared
     consensus state even at distinct destinations (proposal order
     picks the decision under quorum 1), but control-vs-data at
     distinct destinations is disjoint.
   - A multicast writes the sender node and its outgoing links, so it
     commutes with any delivery to a different node.
   - Ticks (decision upcalls reach every member) and environment
     transitions are dependent with everything. *)
let independent sys a b =
  let data src dst = Group.mc_head_is_data sys.cluster ~src ~dst in
  match (a, b) with
  | Deliver d1, Deliver d2 ->
      d1.dst <> d2.dst && (data d1.src d1.dst || data d2.src d2.dst)
  | Multicast p, Deliver d | Deliver d, Multicast p -> p <> d.dst
  | _ -> false
