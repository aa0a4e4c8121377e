module Codec = Svs_codec.Codec
module W = Codec.Writer
module R = Codec.Reader
module View = Svs_core.View
module Wire_codec = Svs_core.Wire_codec
module Metrics = Svs_telemetry.Metrics

type record =
  | Snapshot of { view : View.t option; floors : (int * int) list; next_sn : int }
  | Install of View.t
  | Floor of { sender : int; sn : int }
  | Lease of { next_sn : int }

type recovery = {
  view : View.t option;
  floors : (int * int) list;
  next_sn : int;
  records : int;
  truncated : int;
  skipped : int;
  tainted : bool;
  fresh : bool;
}

type open_error = Foreign_log of { dir : string; owner : int; me : int }

exception Open_error of open_error

let open_error_message (Foreign_log { dir; owner; me }) =
  Printf.sprintf "Wal: log in %s belongs to node %d, not node %d" dir owner me

(* In-memory mirror of what a full replay of the log would yield; kept
   current on every append so a rotation can open the next segment
   with one Snapshot instead of re-reading the old one. *)
type state = {
  mutable view : View.t option;
  floors : (int, int) Hashtbl.t;
  mutable next_sn : int;
}

type t = {
  dir : string;
  me : int;
  segment_limit : int;
  state : state;
  notes : (int, int) Hashtbl.t; (* latest delivery floor noted per sender *)
  mutable fd : Unix.file_descr;
  mutable seg_index : int;
  mutable seg_bytes : int;
  mutable dirty : bool;
  mutable closed : bool;
  tail : Iobuf.t; (* group-commit tail: framed records not yet written *)
  mutable scratch : Bytes.t; (* reusable encode buffer (grows to fit) *)
  scratch_w : W.t; (* reusable record writer *)
  c_appends : Metrics.Counter.t;
  c_syncs : Metrics.Counter.t;
  c_rotations : Metrics.Counter.t;
  c_corrupt : Metrics.Counter.t;
}

(* Once this much is queued in memory, hand it to the kernel (still
   without fsync) so the tail never grows unboundedly between syncs. *)
let tail_watermark = 256 * 1024

(* --- CRC32 (IEEE 802.3, reflected, polynomial 0xEDB88320) --- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  String.iter (fun ch -> c := table.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8)) s;
  !c lxor 0xFFFFFFFF

let crc32_sub b off len =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  for i = off to off + len - 1 do
    c := table.((!c lxor Char.code (Bytes.unsafe_get b i)) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

(* --- Framing: [u32 length][u32 crc32(payload)][payload], big endian --- *)

let frame_header_bytes = 8

let get_be32 s off =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

(* --- Record encoding --- *)

(* Tag 0 is the per-segment identity stamp (written on every segment
   open, checked on recovery), not part of the public record type. *)
let encode_meta w me =
  W.clear w;
  W.uint8 w 0;
  W.varint w me

let encode_record w r =
  W.clear w;
  (match r with
  | Snapshot { view; floors; next_sn } ->
      W.uint8 w 1;
      W.option w Wire_codec.write_view view;
      W.list w
        (fun w (sender, sn) ->
          W.varint w sender;
          W.varint w sn)
        floors;
      W.varint w next_sn
  | Install v ->
      W.uint8 w 2;
      Wire_codec.write_view w v
  | Floor { sender; sn } ->
      W.uint8 w 3;
      W.varint w sender;
      W.varint w sn
  | Lease { next_sn } ->
      W.uint8 w 4;
      W.varint w next_sn)

(* Every constructor is monotonic under [apply], so replaying
   duplicated or reordered records (a salvage scan can resurrect both)
   can never roll state backwards: views only move to higher ids,
   floors and the lease ceiling only ratchet up, and a Snapshot merges
   rather than resets. For a well-formed log this coincides with the
   plain replacement semantics, because rotation writes the Snapshot
   first into an otherwise-empty segment. *)
let apply state = function
  | Snapshot { view; floors; next_sn } ->
      (match (view, state.view) with
      | Some v, Some cur when v.View.id < cur.View.id -> ()
      | Some v, _ -> state.view <- Some v
      | None, _ -> ());
      List.iter
        (fun (sender, sn) ->
          let cur = Option.value ~default:(-1) (Hashtbl.find_opt state.floors sender) in
          if sn > cur then Hashtbl.replace state.floors sender sn)
        floors;
      if next_sn > state.next_sn then state.next_sn <- next_sn
  | Install v -> (
      match state.view with
      | Some cur when v.View.id < cur.View.id -> ()
      | _ -> state.view <- Some v)
  | Floor { sender; sn } ->
      let cur = Option.value ~default:(-1) (Hashtbl.find_opt state.floors sender) in
      if sn > cur then Hashtbl.replace state.floors sender sn
  | Lease { next_sn } -> if next_sn > state.next_sn then state.next_sn <- next_sn

(* Decode one frame payload into [state]. [owner] records the first
   identity stamp seen (checked against [me] once replay finishes).
   Returns whether the record was a [Snapshot] — a valid snapshot
   replayed after a corrupt region proves the state suffix intact. *)
let decode_and_apply ~owner state payload =
  let r = R.of_string payload in
  match R.uint8 r with
  | 0 ->
      let me' = R.varint r in
      if !owner = None then owner := Some me';
      false
  | 1 ->
      let view = R.option r Wire_codec.read_view in
      let floors =
        R.list r (fun r ->
            let sender = R.varint r in
            let sn = R.varint r in
            (sender, sn))
      in
      let next_sn = R.varint r in
      apply state (Snapshot { view; floors; next_sn });
      true
  | 2 ->
      apply state (Install (Wire_codec.read_view r));
      false
  | 3 ->
      let sender = R.varint r in
      let sn = R.varint r in
      apply state (Floor { sender; sn });
      false
  | 4 ->
      apply state (Lease { next_sn = R.varint r });
      false
  | n -> raise (Codec.Malformed (Printf.sprintf "wal record tag %d" n))

(* --- Segment files --- *)

let seg_name i = Printf.sprintf "wal-%06d.log" i

let seg_path dir i = Filename.concat dir (seg_name i)

let list_segments dir =
  Array.to_list (Sys.readdir dir)
  |> List.filter_map (fun name ->
         if
           String.length name = 14
           && String.sub name 0 4 = "wal-"
           && Filename.check_suffix name ".log"
         then int_of_string_opt (String.sub name 4 6)
         else None)
  |> List.sort compare

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let truncate_file path n =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
    (fun () -> Unix.ftruncate fd n)

(* A frame is valid at [off] iff its header is plausible (length fits
   the remaining bytes) and the payload checksum matches. *)
let frame_at content off =
  let len = String.length content in
  if off + frame_header_bytes > len then None
  else
    let n = get_be32 content off in
    let crc = get_be32 content (off + 4) in
    if off + frame_header_bytes + n > len then None
    else
      let payload = String.sub content (off + frame_header_bytes) n in
      if crc32 payload <> crc then None else Some payload

(* Legacy replay (salvage off): apply every frame whose length fits and
   whose CRC matches, stop at the first that does not. Returns the
   number of frames applied and the byte offset of the valid prefix —
   everything past it is chopped off. *)
let replay content ~on_frame =
  let len = String.length content in
  let rec go off count =
    if off + frame_header_bytes > len then (count, off)
    else begin
      let n = get_be32 content off in
      let crc = get_be32 content (off + 4) in
      if off + frame_header_bytes + n > len then (count, off)
      else begin
        let payload = String.sub content (off + frame_header_bytes) n in
        if crc32 payload <> crc then (count, off)
        else
          match on_frame payload with
          | (_ : bool) -> go (off + frame_header_bytes + n) (count + 1)
          | exception (Codec.Truncated | Codec.Malformed _ | Invalid_argument _) ->
              (count, off)
      end
    end
  in
  go 0 0

(* Quarantine damaged byte ranges to the segment's [.corrupt] sidecar:
   the bytes stay available for postmortem, the log itself is healed. *)
let quarantine path content regions =
  let oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 (path ^ ".corrupt") in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      List.iter
        (fun (a, b) ->
          output_string oc (Printf.sprintf "== corrupt bytes [%d,%d) ==\n" a b);
          output_string oc (String.sub content a (b - a));
          output_char oc '\n')
        regions)

(* --- Lifecycle --- *)

(* Hand the in-memory tail to the kernel (no fsync). On a regular
   file a write takes everything in one call; loop for safety. *)
let flush t =
  while not (Iobuf.is_empty t.tail) do
    ignore (Iobuf.write_to_fd t.tail t.fd : int)
  done

(* Frame whatever is in [t.scratch_w] and append it to the tail:
   encode once into the reusable scratch bytes (for the CRC pass),
   then header + payload go straight into the tail queue. *)
let append_scratch t =
  let n = W.length t.scratch_w in
  if Bytes.length t.scratch < n then begin
    let cap = ref (max 256 (Bytes.length t.scratch)) in
    while !cap < n do
      cap := !cap * 2
    done;
    t.scratch <- Bytes.create !cap
  end;
  W.blit_into t.scratch_w t.scratch 0;
  Iobuf.add_be32 t.tail n;
  Iobuf.add_be32 t.tail (crc32_sub t.scratch 0 n);
  Iobuf.add_subbytes t.tail t.scratch 0 n;
  t.seg_bytes <- t.seg_bytes + frame_header_bytes + n;
  t.dirty <- true;
  if Iobuf.length t.tail >= tail_watermark then flush t

let pending_bytes t = Iobuf.length t.tail

(* Flush the tail and fsync it (no-op when clean). *)
let commit t =
  if t.dirty && not t.closed then begin
    flush t;
    Unix.fsync t.fd;
    t.dirty <- false;
    Metrics.Counter.incr t.c_syncs
  end

let snapshot_of_state state =
  Snapshot
    {
      view = state.view;
      floors = Hashtbl.fold (fun sender sn acc -> (sender, sn) :: acc) state.floors [];
      next_sn = state.next_sn;
    }

let open_ ~dir ~me ?(segment_limit = 4 * 1024 * 1024) ?(salvage = true) ?metrics () =
  mkdir_p dir;
  let state = { view = None; floors = Hashtbl.create 16; next_sn = 0 } in
  let owner = ref None in
  let segs = list_segments dir in
  let fresh = segs = [] in
  let records = ref 0 in
  let truncated = ref 0 in
  let skipped = ref 0 in
  (* Set at every discarded region, cleared by a later valid Snapshot:
     when still set at the end, a durable Lease (or floor) may have
     been destroyed with nothing after it to supersede it — the caller
     must not trust the recovered lease ceiling. A plain torn tail on
     the last segment does not taint: un-synced bytes were never
     relied upon (the group-commit contract). *)
  let unproven = ref false in
  let rewrite = ref false in
  let legacy_corrupt = ref false in
  let on_frame payload =
    let is_snapshot = decode_and_apply ~owner state payload in
    if is_snapshot then unproven := false;
    is_snapshot
  in
  let nsegs = List.length segs in
  List.iteri
    (fun k i ->
      let is_last = k = nsegs - 1 in
      let path = seg_path dir i in
      if not salvage then begin
        (* Legacy recovery: truncate at the first bad frame, discard
           every later segment (they order after untrusted bytes). *)
        if !legacy_corrupt then begin
          truncated := !truncated + (Unix.stat path).Unix.st_size;
          Sys.remove path
        end
        else begin
          let content = read_file path in
          let count, valid = replay content ~on_frame in
          records := !records + count;
          if valid < String.length content then begin
            truncated := !truncated + (String.length content - valid);
            legacy_corrupt := true;
            truncate_file path valid
          end
        end
      end
      else begin
        (* Salvage scan: apply every valid frame, resync past corrupt
           regions by hunting for the next plausible header, quarantine
           what was skipped. *)
        let content = read_file path in
        let len = String.length content in
        let regions = ref [] in
        (* First offset >= off holding a valid frame, if any. *)
        let rec next_valid off =
          if off + frame_header_bytes > len then None
          else if frame_at content off <> None then Some off
          else next_valid (off + 1)
        in
        let tail_garbage = ref None in
        let rec go off =
          if off < len then
            match frame_at content off with
            | Some payload ->
                let stop = off + frame_header_bytes + String.length payload in
                (match on_frame payload with
                | (_ : bool) -> incr records
                | exception (Codec.Truncated | Codec.Malformed _ | Invalid_argument _) ->
                    (* CRC-valid bytes that do not decode: skip the
                       whole frame, keep scanning after it. *)
                    regions := (off, stop) :: !regions;
                    unproven := true);
                go stop
            | None -> (
                match next_valid (off + 1) with
                | Some q ->
                    regions := (off, q) :: !regions;
                    unproven := true;
                    go q
                | None -> tail_garbage := Some off)
        in
        go 0;
        let regions = List.rev !regions in
        if regions <> [] then begin
          skipped := !skipped + List.length regions;
          truncated :=
            !truncated + List.fold_left (fun acc (a, b) -> acc + (b - a)) 0 regions;
          quarantine path content regions;
          rewrite := true
        end;
        match !tail_garbage with
        | None -> ()
        | Some a ->
            truncated := !truncated + (len - a);
            if is_last then begin
              (* A torn tail: the ordinary crash leftover. Chop it so
                 the segment stays appendable. *)
              if not !rewrite then truncate_file path a
            end
            else begin
              (* Garbage mid-log with later segments after it: discard
                 it like an interior region. *)
              incr skipped;
              unproven := true;
              quarantine path content [ (a, len) ];
              if not !rewrite then truncate_file path a
            end
      end)
    segs;
  match !owner with
  | Some o when o <> me -> Error (Foreign_log { dir; owner = o; me })
  | _ ->
      let labels = [ ("node", string_of_int me) ] in
      let counter name =
        match metrics with
        | None -> Metrics.Counter.detached ()
        | Some reg -> Metrics.counter reg ~labels name
      in
      let seg_index, seg_bytes, fd =
        if !rewrite then begin
          (* Interior corruption: the surviving bytes cannot be made
             replay-clean in place, so rewrite the log — a fresh
             segment seeded with the salvaged state, then the damaged
             segments go (their corrupt bytes live on in the
             sidecars). *)
          let next = match List.rev segs with last :: _ -> last + 1 | [] -> 0 in
          let fd =
            Unix.openfile (seg_path dir next)
              [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
              0o644
          in
          (next, 0, fd)
        end
        else
          (* Legacy recovery may have deleted segments past the first
             corrupt one — re-list to find the last survivor. *)
          match List.rev (if !legacy_corrupt then list_segments dir else segs) with
          | last :: _ ->
              let path = seg_path dir last in
              let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 in
              (last, (Unix.fstat fd).Unix.st_size, fd)
          | [] ->
              let path = seg_path dir 0 in
              let fd =
                Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
              in
              (0, 0, fd)
      in
      let t =
        {
          dir;
          me;
          segment_limit;
          state;
          notes = Hashtbl.create 8;
          fd;
          seg_index;
          seg_bytes;
          dirty = false;
          closed = false;
          tail = Iobuf.create ~capacity:4096 ();
          scratch = Bytes.create 256;
          scratch_w = W.create ();
          c_appends = counter "wal_appends_total";
          c_syncs = counter "wal_syncs_total";
          c_rotations = counter "wal_rotations_total";
          c_corrupt = counter "wal_corrupt_regions_total";
        }
      in
      if !skipped > 0 then Metrics.Counter.add t.c_corrupt !skipped;
      (* Stamp identity on a brand-new segment (an existing one already
         carries its stamp); a rewritten log also gets the salvaged
         state as its opening snapshot, then the damaged segments are
         removed. *)
      if seg_bytes = 0 then begin
        encode_meta t.scratch_w me;
        append_scratch t;
        if !rewrite then begin
          encode_record t.scratch_w (snapshot_of_state state);
          append_scratch t
        end;
        commit t
      end;
      if !rewrite then
        List.iter
          (fun i ->
            let path = seg_path dir i in
            if Sys.file_exists path then Sys.remove path)
          segs;
      let recovery =
        {
          view = state.view;
          floors = Hashtbl.fold (fun sender sn acc -> (sender, sn) :: acc) state.floors [];
          next_sn = state.next_sn;
          records = !records;
          truncated = !truncated;
          skipped = !skipped;
          tainted = !unproven;
          fresh;
        }
      in
      Ok (t, recovery)

let open_exn ~dir ~me ?segment_limit ?salvage ?metrics () =
  match open_ ~dir ~me ?segment_limit ?salvage ?metrics () with
  | Ok v -> v
  | Error e -> raise (Open_error e)

let append_record t record =
  apply t.state record;
  encode_record t.scratch_w record;
  append_scratch t;
  Metrics.Counter.incr t.c_appends

(* One [Floor] per sender whose noted floor is above the logged one. *)
let write_floors t =
  Hashtbl.iter
    (fun sender sn ->
      match Hashtbl.find_opt t.state.floors sender with
      | Some logged when logged >= sn -> ()
      | _ -> append_record t (Floor { sender; sn }))
    t.notes

(* Open the next segment, seeded with the identity stamp and a
   snapshot of the current state; once the new segment is durable, the
   older ones are redundant and removed. *)
let rotate t =
  (* The tail belongs to the old segment: make it durable there before
     switching fds. *)
  write_floors t;
  commit t;
  (try Unix.close t.fd with Unix.Unix_error (_, _, _) -> ());
  let old = t.seg_index in
  t.seg_index <- t.seg_index + 1;
  t.fd <-
    Unix.openfile (seg_path t.dir t.seg_index)
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
      0o644;
  t.seg_bytes <- 0;
  encode_meta t.scratch_w t.me;
  append_scratch t;
  encode_record t.scratch_w (snapshot_of_state t.state);
  append_scratch t;
  commit t;
  for i = 0 to old do
    let path = seg_path t.dir i in
    if Sys.file_exists path then Sys.remove path
  done;
  Metrics.Counter.incr t.c_rotations

let append t record =
  if t.closed then invalid_arg "Wal.append: closed";
  append_record t record;
  if t.seg_bytes >= t.segment_limit then rotate t

let note_floor t ~sender ~sn =
  if t.closed then invalid_arg "Wal.note_floor: closed";
  match Hashtbl.find t.notes sender with
  | noted when noted >= sn -> ()
  | _ | exception Not_found -> Hashtbl.replace t.notes sender sn

(* Every durable point goes through here, so the floors noted since
   the last sync always reach the disk with it. Floors are the only
   records a pure receiver writes, so the segment limit is checked
   here as well as in {!append}. *)
let sync t =
  if not t.closed then begin
    write_floors t;
    commit t;
    if t.seg_bytes >= t.segment_limit then rotate t
  end

let append_durable t record =
  append t record;
  sync t

let current_segment t = t.seg_index

let close t =
  if not t.closed then begin
    sync t;
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error (_, _, _) -> ()
  end

(* Crash simulation for tests: drop the in-memory tail on the floor
   and close the fd without flushing or fsyncing — what a process
   death between an append and the commit tick leaves on disk. *)
let abandon t =
  if not t.closed then begin
    Iobuf.clear t.tail;
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error (_, _, _) -> ()
  end
