//! JSON wire types of the daemon's HTTP API.

use muri_sim::{ClusterState, JobStatus};
use muri_workload::ModelKind;
use serde::{Deserialize, Error, Serialize, Value};

/// `POST /v1/jobs` request body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SubmitRequest {
    /// Tenant the job bills against (default tenant when omitted).
    #[serde(default)]
    pub tenant: Option<String>,
    /// Model name, matched case-insensitively against the known models
    /// (see [`parse_model`]).
    pub model: String,
    /// GPUs demanded (a nonzero power of two).
    pub num_gpus: u32,
    /// Training iterations to run.
    pub iterations: u64,
}

/// `POST /v1/jobs` response body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SubmitResponse {
    /// Whether admission accepted the job.
    pub accepted: bool,
    /// Assigned job id (present iff accepted).
    #[serde(default)]
    pub job: Option<u32>,
    /// Refusal reason (present iff not accepted).
    #[serde(default)]
    pub reason: Option<String>,
    /// Present on *retryable* refusals (daemon saturated, not a bad
    /// request): how long the client should back off. Surfaced as a
    /// `429`/`503` with a `Retry-After` header; permanent refusals
    /// (bad shape, unknown tenant, over quota) stay `409`.
    #[serde(default)]
    pub retry_after_ms: Option<u64>,
}

/// `GET /v1/jobs/{id}` response body.
#[derive(Debug, Clone, Serialize)]
pub struct JobView {
    /// The job id queried.
    pub job: u32,
    /// The scheduler's view of the job.
    pub status: JobStatus,
}

/// `GET /v1/cluster` response body.
#[derive(Debug, Clone, Serialize)]
pub struct ClusterView {
    /// Aggregate scheduler/cluster state.
    pub cluster: ClusterState,
    /// `(tenant, outstanding GPU demand, quota)` rows.
    pub tenants: Vec<(String, u32, Option<u32>)>,
}

/// `POST /v1/shutdown` response body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShutdownResponse {
    /// Running jobs whose progress was checkpointed before exit.
    pub checkpointed_jobs: usize,
    /// Events in the flushed telemetry journal.
    pub journal_events: usize,
}

/// `POST /v1/config` request body: a rolling tenant-quota change,
/// applied without restart and journaled so recovery replays it.
#[derive(Debug, Clone, Serialize)]
pub struct ConfigRequest {
    /// Tenant-quota upserts (tenants not named keep their quota).
    pub tenants: Vec<crate::tenant::TenantConfig>,
}

/// Decoded by hand because the derived decoder ignores unknown keys: a
/// misspelt or retired key must be refused, not journaled as an empty
/// change that reports `applied: true`.
impl Deserialize for ConfigRequest {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let Value::Map(entries) = v else {
            return Err(Error::msg(format!(
                "expected an object, found {}",
                v.kind()
            )));
        };
        if let Some((key, _)) = entries.iter().find(|(k, _)| k != "tenants") {
            return Err(Error::msg(format!(
                "unknown key `{key}` (the only key is `tenants`)"
            )));
        }
        let tenants = match v.get("tenants") {
            Some(t) => Deserialize::from_value(t)?,
            None => Vec::new(),
        };
        Ok(ConfigRequest { tenants })
    }
}

/// `POST /v1/config` response body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConfigResponse {
    /// Whether the change was applied (and journaled).
    pub applied: bool,
    /// Tenant rows upserted.
    pub tenants_updated: usize,
}

/// Error response body (any non-2xx status).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ErrorBody {
    /// What went wrong.
    pub error: String,
}

/// Resolve a model name (case-insensitive) against the known models.
#[must_use]
pub fn parse_model(name: &str) -> Option<ModelKind> {
    ModelKind::ALL
        .into_iter()
        .find(|m| m.name().eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_names_round_trip() {
        for m in ModelKind::ALL {
            assert_eq!(parse_model(m.name()), Some(m));
            assert_eq!(parse_model(&m.name().to_uppercase()), Some(m));
        }
        assert_eq!(parse_model("NotAModel"), None);
    }

    #[test]
    fn submit_request_parses_with_and_without_tenant() {
        let r: SubmitRequest =
            serde_json::from_str(r#"{"model":"ResNet18","num_gpus":2,"iterations":100}"#)
                .expect("parse");
        assert!(r.tenant.is_none());
        let r: SubmitRequest = serde_json::from_str(
            r#"{"tenant":"alice","model":"ResNet18","num_gpus":2,"iterations":100}"#,
        )
        .expect("parse");
        assert_eq!(r.tenant.as_deref(), Some("alice"));
    }

    #[test]
    fn config_request_refuses_every_key_but_tenants() {
        let r: ConfigRequest =
            serde_json::from_str(r#"{"tenants":[{"name":"alice","quota_gpus":8}]}"#)
                .expect("parse");
        assert_eq!(r.tenants.len(), 1);
        let r: ConfigRequest = serde_json::from_str("{}").expect("parse");
        assert!(r.tenants.is_empty());
        for (body, key) in [
            (r#"{"policy":"muri-s"}"#, "`policy`"),
            (r#"{"tenants":[],"tenant":[]}"#, "`tenant`"),
        ] {
            let err = serde_json::from_str::<ConfigRequest>(body)
                .expect_err(body)
                .to_string();
            assert!(
                err.contains("unknown key") && err.contains(key),
                "{body}: {err}"
            );
        }
        assert!(serde_json::from_str::<ConfigRequest>("[]").is_err());
    }
}
