//! The machinery behind the scenario tables: what a key's value must
//! be, the one walker that decodes every object level against its
//! table, and the key reference rendered from the same tables.

use mpdash_results::Json;
use mpdash_sim::SimDuration;
use std::fmt;

/// A numeric range: `lo`, `hi`, and whether each is open.
#[derive(Clone, Copy)]
pub(super) struct Bound(
    pub(super) f64,
    pub(super) f64,
    pub(super) bool,
    pub(super) bool,
);

impl Bound {
    pub(super) fn admits(self, v: f64) -> bool {
        let above = if self.2 { v > self.0 } else { v >= self.0 };
        above && if self.3 { v < self.1 } else { v <= self.1 }
    }
}

/// The range as an error states it: `> 0`, `>= 0`, `in [0,1)`.
impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Bound(lo, hi, lo_open, hi_open) = *self;
        match hi.is_finite() {
            false => write!(f, "{} {lo}", if lo_open { ">" } else { ">=" }),
            true => {
                let (l, r) = (
                    if lo_open { '(' } else { '[' },
                    if hi_open { ')' } else { ']' },
                );
                write!(f, "in {l}{lo},{hi}{r}")
            }
        }
    }
}

/// What a key's value must be.
#[derive(Clone, Copy)]
pub(super) enum Kind {
    /// A finite number within the bound.
    Num(Bound),
    /// A whole number in `lo..=hi`.
    Whole(u64, u64),
    Text,
    Bool,
    /// A variant of an externally tagged enum, in snake_case: a bare
    /// string names a unit variant, a single-key object wraps a payload
    /// variant (`{"throttled": 700}`).
    Tagged(&'static Tags),
    /// An object of another level.
    Obj(&'static dyn Schema),
    /// An array of one kind; a required list must not be empty.
    List(&'static Kind),
}

/// The variants of a tagged kind. A variant's index counts the units
/// first, then the payloads.
pub(super) struct Tags {
    /// What an unknown variant is called in an error (`unknown abr 'x'`).
    pub(super) what: &'static str,
    /// `name`, or `name|alias|…` for a name that takes other spellings.
    pub(super) units: &'static [&'static str],
    pub(super) payloads: &'static [(&'static str, Kind)],
    /// Whether the expected list ends "…, or last".
    pub(super) or: bool,
}

impl Tags {
    pub(super) const fn new(
        what: &'static str,
        units: &'static [&'static str],
        payloads: &'static [(&'static str, Kind)],
    ) -> Tags {
        Tags {
            what,
            units,
            payloads,
            or: false,
        }
    }

    /// Every variant's name, aliases left out.
    pub(super) fn variants(&self) -> impl Iterator<Item = &'static str> {
        let units = self.units.iter().map(|u| u.split('|').next().unwrap_or(u));
        units.chain(self.payloads.iter().map(|(tag, _)| *tag))
    }
}

/// One key of one level, as the document sees it.
pub(super) struct Spec {
    pub(super) name: &'static str,
    pub(super) required: bool,
    pub(super) kind: Kind,
    pub(super) doc: &'static str,
    /// The variants under which the level reads this key; empty: all.
    /// They are of the tag wrapping the level, or of the level's switch:
    /// the tagged key before them (its first variant when absent).
    pub(super) only: &'static [&'static str],
    /// A bare value of this key stands for the whole object.
    pub(super) bare: bool,
}

/// How a checked value lands in the config `T` being decoded.
pub(super) enum Land<T> {
    Set(fn(&mut T, &Val)),
    /// For a value that can still be refused: a cross-field check, or a
    /// conversion that would round to zero.
    Try(fn(&mut T, &Val) -> Result<(), String>),
}

/// One row of a level's table.
pub(super) struct Key<T> {
    pub(super) spec: Spec,
    land: Land<T>,
}

pub(super) const fn req<T>(
    name: &'static str,
    kind: Kind,
    doc: &'static str,
    land: Land<T>,
) -> Key<T> {
    let spec = Spec {
        name,
        required: true,
        kind,
        doc,
        only: &[],
        bare: false,
    };
    Key { spec, land }
}

pub(super) const fn opt<T>(
    name: &'static str,
    kind: Kind,
    doc: &'static str,
    land: Land<T>,
) -> Key<T> {
    let mut key = req(name, kind, doc, land);
    key.spec.required = false;
    key
}

/// `key`, read only under these variants.
pub(super) const fn under<T>(variants: &'static [&'static str], mut key: Key<T>) -> Key<T> {
    key.spec.only = variants;
    key
}

/// `key`, whose bare value stands for the whole object.
pub(super) const fn bare<T>(mut key: Key<T>) -> Key<T> {
    key.spec.bare = true;
    key
}

/// One object level of the document: its keys in decode order, which is
/// also the order its "accepts:" list names them in.
pub(super) struct Level<T: 'static>(pub(super) &'static [Key<T>]);

/// A level's keys without the config type they land in: what the key
/// reference and the document generator walk.
pub(super) trait Schema: Sync {
    fn specs(&self) -> Vec<&'static Spec>;
}

impl<T: 'static> Schema for Level<T> {
    fn specs(&self) -> Vec<&'static Spec> {
        self.0.iter().map(|key| &key.spec).collect()
    }
}

/// A value that passed its kind's check, and its full path. For a
/// tagged kind, `pick` and `tag` are the variant's index and name, and
/// `json`, `at` and `inner` (its own variant, when tagged too) are the
/// payload's.
pub(super) struct Val<'a> {
    pub(super) json: &'a Json,
    pub(super) at: String,
    pub(super) pick: usize,
    pub(super) tag: &'static str,
    pub(super) inner: usize,
}

// The readers return what `check` already found there.
impl<'a> Val<'a> {
    pub(super) fn of(json: &'a Json, at: String) -> Self {
        Val {
            json,
            at,
            pick: 0,
            tag: "",
            inner: 0,
        }
    }

    pub(super) fn num(&self) -> f64 {
        self.json.as_f64().unwrap_or_default()
    }

    pub(super) fn whole(&self) -> u64 {
        self.json.as_u64().unwrap_or_default()
    }

    pub(super) fn text(&self) -> &'a str {
        self.json.as_str().unwrap_or_default()
    }

    pub(super) fn bool(&self) -> bool {
        self.json.as_bool().unwrap_or_default()
    }

    pub(super) fn secs(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.num())
    }

    pub(super) fn millis(&self) -> SimDuration {
        SimDuration::from_millis(self.whole())
    }
}

/// Check one value against its kind; an object is its level's to check.
/// A number must be finite, so `1e999` fails here rather than as a
/// panic deep inside the simulator.
fn check<'a>(kind: &Kind, json: &'a Json, at: String) -> Result<Val<'a>, String> {
    let refusal = match *kind {
        Kind::Num(bound) => match json.as_f64().filter(|v| v.is_finite()) {
            None => Some("must be a finite number".to_string()),
            Some(v) => (!bound.admits(v)).then(|| format!("must be {bound}, got {v}")),
        },
        Kind::Whole(lo, hi) => {
            (!json.as_u64().is_some_and(|v| (lo..=hi).contains(&v))).then(|| {
                let upper = if hi == u64::MAX {
                    String::new()
                } else {
                    format!(" and <= {hi}")
                };
                format!("must be a whole number >= {lo}{upper}, got {json}")
            })
        }
        Kind::Text => json.as_str().is_none().then(|| "must be a string".into()),
        Kind::Bool => json.as_bool().is_none().then(|| "must be a boolean".into()),
        Kind::Obj(_) | Kind::List(_) => None,
        Kind::Tagged(tags) => return tagged(tags, json, at),
    };
    match refusal {
        Some(why) => Err(format!("{at}: {why}")),
        None => Ok(Val::of(json, at)),
    }
}

fn tagged<'a>(tags: &Tags, json: &'a Json, at: String) -> Result<Val<'a>, String> {
    let units = tags.units.len();
    let (name, payload) = match (json.as_str(), json.as_obj()) {
        (Some(name), _) if units > 0 => (name, None),
        (_, Some([(tag, payload)])) if !tags.payloads.is_empty() => (tag.as_str(), Some(payload)),
        _ if tags.payloads.is_empty() => return Err(format!("{at}: must be a string")),
        _ => return Err(format!("{at}: expected a single-variant object")),
    };
    let pick = match payload {
        None => tags
            .units
            .iter()
            .position(|u| u.split('|').any(|n| n == name)),
        Some(_) => (tags.payloads.iter().position(|(tag, _)| *tag == name)).map(|i| units + i),
    };
    let Some(pick) = pick else {
        let names: Vec<_> = tags.variants().collect();
        let expected = match names.split_last() {
            Some((last, rest)) if tags.or && !rest.is_empty() => {
                format!("{}, or {last}", rest.join(", "))
            }
            _ => names.join(", "),
        };
        let what = tags.what;
        return Err(format!(
            "{at}: unknown {what} '{name}' (expected {expected})"
        ));
    };
    let tag = tags.variants().nth(pick).unwrap_or_default();
    match payload {
        None => Ok(Val {
            pick,
            tag,
            ..Val::of(json, at)
        }),
        Some(payload) => {
            let inner = check(
                &tags.payloads[pick - units].1,
                payload,
                format!("{at}.{tag}"),
            )?;
            Ok(Val {
                pick,
                tag,
                inner: inner.pick,
                ..inner
            })
        }
    }
}

/// Check the value under one key and land it, a list item by item.
/// Returns the value's variant, which a level's switch gates on.
fn read<T>(key: &Key<T>, into: &mut T, json: &Json, at: String) -> Result<&'static str, String> {
    let land = |into: &mut T, v: &Val| match key.land {
        Land::Set(set) => {
            set(into, v);
            Ok(())
        }
        Land::Try(set) => set(into, v),
    };
    let Kind::List(item) = key.spec.kind else {
        let val = check(&key.spec.kind, json, at)?;
        return land(into, &val).map(|()| val.tag);
    };
    let items = json
        .as_arr()
        .ok_or_else(|| format!("{at}: must be an array"))?;
    if items.is_empty() && key.spec.required {
        return Err(format!("{at}: must list at least one entry"));
    }
    for (i, json) in items.iter().enumerate() {
        land(into, &check(item, json, format!("{at}[{i}]"))?)?;
    }
    Ok("")
}

pub(super) fn join(path: &str, key: &str) -> String {
    match path {
        "" => key.to_string(),
        path => format!("{path}.{key}"),
    }
}

/// Decode the object `v` onto `into` with `level`'s table. A repeated
/// key, a missing required one, a value its kind refuses and — once
/// every key is read — a key the level does not take are errors, each
/// naming the key's full path.
pub(super) fn decode<T>(level: &Level<T>, mut into: T, v: &Val) -> Result<T, String> {
    let keys = level.0;
    if let Some(bare) = keys.iter().find(|key| key.spec.bare) {
        let names_a_key = |(name, _): &(String, Json)| keys.iter().any(|key| key.spec.name == name);
        if !(v.json.as_obj()).is_some_and(|m| m.is_empty() || m.iter().any(names_a_key)) {
            return read(bare, &mut into, v.json, v.at.clone()).map(|_| into);
        }
    }
    let root = if v.at.is_empty() {
        "the scenario document"
    } else {
        &v.at
    };
    let members = v
        .json
        .as_obj()
        .ok_or_else(|| format!("{root}: must be an object"))?;
    for (i, (key, _)) in members.iter().enumerate() {
        if members[..i].iter().any(|(earlier, _)| earlier == key) {
            return Err(format!("{}: key is given twice", join(&v.at, key)));
        }
    }
    let switches = keys.iter().any(|key| !key.spec.only.is_empty());
    let (mut gate, mut switch, mut asked) = (v.tag, None, Vec::new());
    for key in keys {
        let spec = &key.spec;
        if !spec.only.is_empty() && !spec.only.contains(&gate) {
            continue;
        }
        asked.push(spec.name);
        let at = join(&v.at, spec.name);
        let tag = match members.iter().find(|(name, _)| name == spec.name) {
            Some((_, json)) => read(key, &mut into, json, at)?,
            None if spec.required => return Err(format!("{at}: missing required key")),
            None => match spec.kind {
                Kind::Tagged(tags) => tags.variants().next().unwrap_or_default(),
                _ => "",
            },
        };
        if switches && matches!(spec.kind, Kind::Tagged(_)) {
            (gate, switch) = (tag, Some(spec.name));
        }
    }
    match members
        .iter()
        .find(|(name, _)| !asked.contains(&name.as_str()))
    {
        None => Ok(into),
        Some((stray, _)) => {
            let under = switch.map_or(String::new(), |key| format!(" under {key} '{gate}'"));
            let (stray, accepts) = (join(&v.at, stray), asked.join(", "));
            Err(format!(
                "{stray}: unknown key ({root} accepts: {accepts}){under}"
            ))
        }
    }
}

/// The key reference: one table per level, in the order the document
/// first reaches each, titled with that first path.
pub(super) fn render(root: &'static dyn Schema) -> String {
    let (mut levels, mut out) = (vec![(String::new(), root)], String::new());
    let mut next = 0;
    while let Some((path, level)) = levels.get(next).cloned() {
        next += 1;
        let title = if path.is_empty() {
            "The scenario document".into()
        } else {
            format!("`{path}`")
        };
        out += &format!("\n**{title}**\n\n| key | | value | meaning |\n|---|---|---|---|\n");
        for spec in level.specs() {
            let value = describe(&spec.kind, &join(&path, spec.name), &mut levels);
            let need = if spec.required {
                "required"
            } else {
                "optional"
            };
            let only: Vec<_> = spec.only.iter().map(|v| format!("`{v}`")).collect();
            let when = if only.is_empty() {
                String::new()
            } else {
                format!("{} only. ", only.join(", "))
            };
            let bare = if spec.bare {
                " A bare value stands for the whole object."
            } else {
                ""
            };
            out += &format!(
                "| `{}` | {need} | {value} | {when}{}{bare} |\n",
                spec.name, spec.doc
            );
        }
    }
    out
}

/// A kind as the reference's value column says it. The first path that
/// reaches a level titles its table; a level met here first is queued.
fn describe(kind: &Kind, at: &str, levels: &mut Vec<(String, &'static dyn Schema)>) -> String {
    match *kind {
        Kind::Num(bound) => format!("number {bound}"),
        Kind::Whole(lo, u64::MAX) => format!("whole number >= {lo}"),
        Kind::Whole(lo, hi) => format!("whole number {lo} to {hi}"),
        Kind::Text => "string".into(),
        Kind::Bool => "boolean".into(),
        Kind::List(item) => format!("list of {}", describe(item, &format!("{at}[]"), levels)),
        Kind::Obj(level) => match levels
            .iter()
            .find(|(_, seen)| std::ptr::addr_eq(*seen, level))
        {
            Some((path, _)) => format!("`{path}` object"),
            None => {
                levels.push((at.to_string(), level));
                format!("`{at}` object")
            }
        },
        Kind::Tagged(tags) => {
            let objects: Vec<_> = (tags.payloads.iter())
                .filter(|(_, kind)| matches!(kind, Kind::Obj(_)))
                .map(|(tag, _)| format!("`{tag}`"))
                .collect();
            // Tags that wrap several objects (the fault kinds) wrap one
            // level, gated by the tag: its table is titled `KIND`.
            if objects.len() > 1 {
                let payload = describe(&tags.payloads[0].1, &format!("{at}.KIND"), levels);
                return format!(
                    "{{\"KIND\": {payload}}}, KIND one of {}",
                    objects.join(", ")
                );
            }
            let units = tags
                .units
                .iter()
                .map(|u| format!("`{}`", u.replace('|', "`/`")));
            let payloads = tags.payloads.iter().map(|(tag, kind)| {
                format!(
                    "{{\"{tag}\": {}}}",
                    describe(kind, &format!("{at}.{tag}"), levels)
                )
            });
            let all: Vec<_> = units.chain(payloads).collect();
            match &all[..] {
                [alone] => alone.clone(),
                all => format!("one of {}", all.join(", ")),
            }
        }
    }
}
